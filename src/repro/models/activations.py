"""Activation functions and their derivatives for the NumPy neural networks."""

from __future__ import annotations

from typing import Optional

import numpy as np


def relu(x: np.ndarray) -> np.ndarray:
    """Rectified linear unit."""
    return np.maximum(x, 0.0)


def relu_grad(x: np.ndarray) -> np.ndarray:
    """Derivative of ReLU with respect to its pre-activation input."""
    return (x > 0.0).astype(x.dtype)


def tanh(x: np.ndarray) -> np.ndarray:
    return np.tanh(x)


def tanh_grad(x: np.ndarray) -> np.ndarray:
    t = np.tanh(x)
    return 1.0 - t * t


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic sigmoid."""
    out = np.empty_like(x, dtype=float)
    positive = x >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-x[positive]))
    exp_x = np.exp(x[~positive])
    out[~positive] = exp_x / (1.0 + exp_x)
    return out


def softmax(logits: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Softmax over the last axis with the max-subtraction trick for stability.

    Works unchanged for ``(n, C)`` logits and for the ``(B, n, C)`` stacks the
    batched multi-coalition kernels produce (for 2-D input the last axis *is*
    axis 1, so this is the historical row-wise behaviour).  ``out=logits``
    runs the same three ufuncs in place, overwriting the logits.
    """
    shifted = np.subtract(logits, logits.max(axis=-1, keepdims=True), out=out)
    exp = np.exp(shifted, out=shifted)
    return np.divide(exp, exp.sum(axis=-1, keepdims=True), out=exp)


_ACTIVATIONS = {
    "relu": (relu, relu_grad),
    "tanh": (tanh, tanh_grad),
}


def get_activation(name: str):
    """Return ``(function, derivative)`` for a named hidden activation."""
    try:
        return _ACTIVATIONS[name]
    except KeyError as exc:
        raise ValueError(
            f"unknown activation {name!r}; choose from {sorted(_ACTIVATIONS)}"
        ) from exc
