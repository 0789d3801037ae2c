"""Multi-layer perceptron classifier.

One of the two neural FL models in the paper's experiments.  Hidden layers use
ReLU (or tanh) and the output layer is a softmax trained with cross-entropy.
Parameters for all layers are packed into a single flat vector so the FL
server can aggregate them with FedAvg.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.datasets.base import Dataset
from repro.models.activations import get_activation, softmax
from repro.models.base import ParametricModel
from repro.models.metrics import accuracy_score
from repro.utils.rng import SeedLike


class MLPClassifier(ParametricModel):
    """Feed-forward neural network with configurable hidden layers.

    Parameters
    ----------
    n_features:
        Flattened input dimensionality.
    n_classes:
        Number of output classes.
    hidden_sizes:
        Widths of the hidden layers, e.g. ``(32, 16)``.
    activation:
        Hidden activation name (``"relu"`` or ``"tanh"``).
    """

    supports_vectorized = True

    def __init__(
        self,
        n_features: int,
        n_classes: int,
        hidden_sizes: Sequence[int] = (32,),
        activation: str = "relu",
        learning_rate: float = 0.2,
        epochs: int = 10,
        batch_size: int = 32,
        l2: float = 0.0,
        init_scale: float = 0.2,
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
        hidden_sizes = tuple(int(h) for h in hidden_sizes)
        if any(h <= 0 for h in hidden_sizes):
            raise ValueError("hidden layer sizes must be positive")
        self.n_features = n_features
        self.n_classes = n_classes
        self.hidden_sizes = hidden_sizes
        self.activation_name = activation
        self._activation, self._activation_grad = get_activation(activation)
        # Layer sizes: input -> hidden... -> output.
        self._layer_sizes = (n_features,) + hidden_sizes + (n_classes,)
        self._shapes = [
            (self._layer_sizes[i], self._layer_sizes[i + 1])
            for i in range(len(self._layer_sizes) - 1)
        ]

    # ------------------------------------------------------------------ #
    # Parameter packing
    # ------------------------------------------------------------------ #
    def num_parameters(self) -> int:
        return sum(rows * cols + cols for rows, cols in self._shapes)

    def _init_parameters(self, rng: np.random.Generator) -> np.ndarray:
        chunks = []
        for rows, cols in self._shapes:
            scale = self.init_scale * np.sqrt(2.0 / rows)
            chunks.append(rng.normal(0.0, scale, size=rows * cols))
            chunks.append(np.zeros(cols))
        return np.concatenate(chunks)

    def _unpack(self, parameters: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        layers = []
        offset = 0
        for rows, cols in self._shapes:
            weight = parameters[offset : offset + rows * cols].reshape(rows, cols)
            offset += rows * cols
            bias = parameters[offset : offset + cols]
            offset += cols
            layers.append((weight, bias))
        return layers

    @staticmethod
    def _pack(layers: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
        chunks = []
        for weight, bias in layers:
            chunks.append(weight.ravel())
            chunks.append(bias.ravel())
        return np.concatenate(chunks)

    # ------------------------------------------------------------------ #
    # Forward / backward
    # ------------------------------------------------------------------ #
    def _forward(
        self, parameters: np.ndarray, features: np.ndarray
    ) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray]]:
        """Return output probabilities plus cached pre/post activations."""
        layers = self._unpack(parameters)
        activations = [features]
        pre_activations = []
        hidden = features
        for weight, bias in layers[:-1]:
            pre = hidden @ weight + bias
            pre_activations.append(pre)
            hidden = self._activation(pre)
            activations.append(hidden)
        out_weight, out_bias = layers[-1]
        logits = hidden @ out_weight + out_bias
        pre_activations.append(logits)
        return softmax(logits), pre_activations, activations

    def _gradient(
        self, parameters: np.ndarray, features: np.ndarray, targets: np.ndarray
    ) -> np.ndarray:
        features = features.reshape(len(features), -1).astype(float)
        targets = targets.astype(int)
        n = len(features)
        layers = self._unpack(parameters)
        probabilities, pre_activations, activations = self._forward(parameters, features)

        one_hot = np.zeros_like(probabilities)
        one_hot[np.arange(n), targets] = 1.0
        delta = (probabilities - one_hot) / n

        grads: list[tuple[np.ndarray, np.ndarray]] = [None] * len(layers)
        # Output layer.
        grads[-1] = (activations[-1].T @ delta, delta.sum(axis=0))
        # Hidden layers (backwards).
        for layer_index in range(len(layers) - 2, -1, -1):
            weight_next = layers[layer_index + 1][0]
            delta = (delta @ weight_next.T) * self._activation_grad(
                pre_activations[layer_index]
            )
            grads[layer_index] = (activations[layer_index].T @ delta, delta.sum(axis=0))
        return self._pack(grads)

    # ------------------------------------------------------------------ #
    # Batched (stacked-parameter) kernels
    # ------------------------------------------------------------------ #
    def _batch_unpack(self, parameters: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        batch = parameters.shape[0]
        layers = []
        offset = 0
        for rows, cols in self._shapes:
            weight = parameters[:, offset : offset + rows * cols].reshape(batch, rows, cols)
            offset += rows * cols
            bias = parameters[:, offset : offset + cols]
            offset += cols
            layers.append((weight, bias))
        return layers

    def _batch_forward(
        self, parameters: np.ndarray, features: np.ndarray
    ) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray]]:
        """Stacked forward pass: probabilities plus cached activations.

        Returns the hidden layers' pre-activations only: the output logits
        are turned into probabilities in place.  Biases are added in place
        on the matmul outputs — the same additions as ``hidden @ w + b``.
        """
        layers = self._batch_unpack(parameters)
        activations = [features]
        pre_activations = []
        hidden = features
        for weight, bias in layers[:-1]:
            pre = np.matmul(hidden, weight)
            pre += bias[:, None, :]
            pre_activations.append(pre)
            hidden = self._activation(pre)
            activations.append(hidden)
        out_weight, out_bias = layers[-1]
        logits = np.matmul(hidden, out_weight)
        logits += out_bias[:, None, :]
        return softmax(logits, out=logits), pre_activations, activations

    def batch_gradient(
        self,
        parameters: np.ndarray,
        features: np.ndarray,
        targets: np.ndarray,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Stacked backprop: ``(B, P) × (B, m, ...) → (B, P)``.

        Mirrors :meth:`_gradient` with every matmul lifted one batch axis up;
        per-slice operand shapes and layouts match the serial path exactly.
        Each layer's weight and bias gradients are written straight into
        their views of ``out`` (allocated when ``None``), which is returned.
        """
        parameters = self._check_stacked(parameters)
        features = np.asarray(features, dtype=float)
        batch, m = parameters.shape[0], features.shape[1]
        features = features.reshape(batch, m, -1)
        targets = np.asarray(targets).astype(int)
        out = self._gradient_out(parameters, out)
        layers = self._batch_unpack(parameters)
        grads = self._batch_unpack(out)
        # (p - one_hot) / m in place on the probabilities, which nothing
        # reads afterwards; the per-element arithmetic is identical to the
        # serial expression.
        delta, pre_activations, activations = self._batch_forward(
            parameters, features
        )
        delta[np.arange(batch)[:, None], np.arange(m)[None, :], targets] -= 1.0
        delta /= m

        for layer_index in range(len(layers) - 1, -1, -1):
            if layer_index < len(layers) - 1:
                weight_next = layers[layer_index + 1][0]
                delta = np.matmul(delta, weight_next.transpose(0, 2, 1))
                delta *= self._activation_grad(pre_activations[layer_index])
            grad_weight, grad_bias = grads[layer_index]
            np.matmul(
                activations[layer_index].transpose(0, 2, 1), delta, out=grad_weight
            )
            np.sum(delta, axis=1, out=grad_bias)
        return out

    def batch_predict(self, parameters: np.ndarray, features: np.ndarray) -> np.ndarray:
        """Class predictions of every stacked model on shared features."""
        parameters = self._check_stacked(parameters)
        features = np.asarray(features, dtype=float)
        flat = features.reshape(1, len(features), -1)
        stacked = np.broadcast_to(flat, (parameters.shape[0],) + flat.shape[1:])
        probabilities, _, _ = self._batch_forward(parameters, np.ascontiguousarray(stacked))
        return np.argmax(probabilities, axis=-1)

    # ------------------------------------------------------------------ #
    # Prediction / evaluation
    # ------------------------------------------------------------------ #
    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        features = np.asarray(features, dtype=float).reshape(len(features), -1)
        probabilities, _, _ = self._forward(self.get_parameters(), features)
        return probabilities

    def predict(self, features: np.ndarray) -> np.ndarray:
        return np.argmax(self.predict_proba(features), axis=1)

    def evaluate(self, dataset: Dataset) -> float:
        """Test accuracy (the paper's classification utility)."""
        if len(dataset) == 0:
            return 0.0
        predictions = self.predict(dataset.flat_features)
        return accuracy_score(dataset.targets, predictions)
