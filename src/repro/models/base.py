"""Model interfaces shared by the FL simulator and the valuation layer.

Two abstractions are defined:

* :class:`Model` — anything that can be fitted on a dataset and evaluated on a
  test dataset, returning a scalar utility.  Non-parametric models (e.g. the
  gradient-boosted trees standing in for XGBoost) implement only this.
* :class:`ParametricModel` — additionally exposes its parameters as a single
  flat vector and supports local gradient-descent epochs, which is what
  FedAvg-style aggregation and the gradient-based valuation baselines
  (OR, λ-MR, GTG-Shapley) require.

Parametric models additionally speak a *batched* protocol over stacked
parameter matrices ``(B, P)`` — one row per coalition model trained in
lockstep — used by the vectorized multi-coalition training engine
(:mod:`repro.fl.vectorized`).  The base class provides exact per-slice
reference implementations; subclasses that implement truly vectorized
gradients/predictions advertise it with ``supports_vectorized = True``
(non-parametric models such as the GBDT, and models without batched
kernels such as the CNN, are transparently trained on the serial path
instead).
"""

from __future__ import annotations

import abc
import copy
from typing import Optional, Sequence

import numpy as np

from repro.datasets.base import Dataset
from repro.utils.rng import RandomState, SeedLike


class Model(abc.ABC):
    """Minimal model protocol: fit on data, predict, report utility."""

    #: whether the model exposes flat parameters usable for FedAvg aggregation
    is_parametric: bool = False

    @abc.abstractmethod
    def fit(self, dataset: Dataset, seed: SeedLike = None) -> "Model":
        """Train the model from scratch on ``dataset`` and return ``self``."""

    @abc.abstractmethod
    def predict(self, features: np.ndarray) -> np.ndarray:
        """Predict targets (class ids or regression values) for ``features``."""

    @abc.abstractmethod
    def evaluate(self, dataset: Dataset) -> float:
        """Scalar utility of the model on ``dataset`` (accuracy or −MSE)."""

    def clone(self) -> "Model":
        """Return an unfitted copy with identical hyperparameters."""
        return copy.deepcopy(self)


class ParametricModel(Model):
    """A model whose state is a flat parameter vector trainable by SGD.

    Subclasses implement :meth:`_init_parameters`, :meth:`_gradient` and the
    prediction/evaluation methods.  This base class provides parameter get/set,
    mini-batch local training (``train_epochs``) and full ``fit``, which is a
    fresh initialisation followed by local training — exactly the primitives
    the FL server and clients need.
    """

    is_parametric = True

    #: whether the subclass implements truly vectorized batched primitives
    #: (:meth:`batch_gradient` / :meth:`batch_predict` over stacked parameter
    #: matrices).  The vectorized multi-coalition trainer only engages models
    #: that set this to True; everything else stays on the serial path.
    supports_vectorized = False

    def __init__(
        self,
        learning_rate: float = 0.1,
        epochs: int = 5,
        batch_size: int = 32,
        l2: float = 0.0,
        init_scale: float = 0.1,
        seed: SeedLike = None,
    ) -> None:
        if learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {learning_rate}")
        if epochs < 0:
            raise ValueError(f"epochs must be non-negative, got {epochs}")
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        self.learning_rate = learning_rate
        self.epochs = epochs
        self.batch_size = batch_size
        self.l2 = l2
        self.init_scale = init_scale
        self._init_seed = seed
        self._parameters: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ #
    # Parameter handling
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def num_parameters(self) -> int:
        """Total number of scalar parameters."""

    @abc.abstractmethod
    def _init_parameters(self, rng: np.random.Generator) -> np.ndarray:
        """Return a freshly initialised flat parameter vector."""

    @abc.abstractmethod
    def _gradient(
        self, parameters: np.ndarray, features: np.ndarray, targets: np.ndarray
    ) -> np.ndarray:
        """Mini-batch gradient of the training loss at ``parameters``."""

    def get_parameters(self) -> np.ndarray:
        """Copy of the current flat parameter vector (initialising if needed)."""
        if self._parameters is None:
            self.initialize(self._init_seed)
        return self._parameters.copy()

    def set_parameters(self, parameters: np.ndarray) -> None:
        parameters = np.asarray(parameters, dtype=float)
        expected = self.num_parameters()
        if parameters.shape != (expected,):
            raise ValueError(
                f"expected parameter vector of shape ({expected},), got {parameters.shape}"
            )
        self._parameters = parameters.copy()

    def initialize(self, seed: SeedLike = None) -> "ParametricModel":
        """(Re-)initialise parameters; used by the FL server at round zero."""
        rng = RandomState(seed if seed is not None else self._init_seed)
        self._parameters = np.asarray(self._init_parameters(rng), dtype=float)
        if self._parameters.shape != (self.num_parameters(),):
            raise RuntimeError(
                "model initialisation produced a parameter vector of the wrong size"
            )
        return self

    @property
    def is_initialized(self) -> bool:
        return self._parameters is not None

    # ------------------------------------------------------------------ #
    # Training
    # ------------------------------------------------------------------ #
    def train_epochs(
        self,
        dataset: Dataset,
        epochs: Optional[int] = None,
        seed: SeedLike = None,
        proximal_mu: float = 0.0,
        reference_parameters: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Run mini-batch SGD epochs from the current parameters.

        ``proximal_mu``/``reference_parameters`` implement the FedProx proximal
        term ``(μ/2)·||w − w_ref||²`` used by the FedProx algorithm.
        Returns the updated flat parameter vector (also stored on the model).
        """
        if self._parameters is None:
            self.initialize(seed)
        epochs = self.epochs if epochs is None else epochs
        rng = RandomState(seed)
        params = self._parameters
        n = len(dataset)
        if n == 0 or epochs == 0:
            return params.copy()
        features = dataset.features
        targets = dataset.targets
        for _ in range(epochs):
            order = rng.permutation(n)
            for start in range(0, n, self.batch_size):
                batch = order[start : start + self.batch_size]
                grad = self._gradient(params, features[batch], targets[batch])
                if self.l2 > 0:
                    grad = grad + self.l2 * params
                if proximal_mu > 0.0 and reference_parameters is not None:
                    grad = grad + proximal_mu * (params - reference_parameters)
                params = params - self.learning_rate * grad
        self._parameters = params
        return params.copy()

    def fit(self, dataset: Dataset, seed: SeedLike = None) -> "ParametricModel":
        """Fresh initialisation followed by ``self.epochs`` of local training."""
        self.initialize(seed)
        self.train_epochs(dataset, seed=seed)
        return self

    def gradient_on(self, dataset: Dataset) -> np.ndarray:
        """Full-batch gradient at the current parameters (for analysis/tests)."""
        if self._parameters is None:
            self.initialize(self._init_seed)
        if len(dataset) == 0:
            return np.zeros(self.num_parameters())
        return self._gradient(self._parameters, dataset.features, dataset.targets)

    # ------------------------------------------------------------------ #
    # Batched (stacked-parameter) protocol
    # ------------------------------------------------------------------ #
    # One row per coalition model trained in lockstep: parameters are a
    # ``(B, P)`` matrix, per-slice mini-batches a ``(B, m, ...)`` feature
    # stack.  The defaults below are exact per-slice loops — bitwise
    # identical to the serial primitives by construction — so every
    # parametric model is batch-*correct*; only models that override
    # :meth:`batch_gradient` / :meth:`batch_predict` with genuinely
    # vectorized kernels (``supports_vectorized = True``) are batch-*fast*.

    def _check_stacked(self, parameters: np.ndarray) -> np.ndarray:
        parameters = np.asarray(parameters, dtype=float)
        expected = self.num_parameters()
        if parameters.ndim != 2 or parameters.shape[1] != expected:
            raise ValueError(
                f"expected stacked parameters of shape (B, {expected}), "
                f"got {parameters.shape}"
            )
        return parameters

    def batch_init_parameters(
        self, rngs: Sequence[np.random.Generator]
    ) -> np.ndarray:
        """Stack of fresh initialisations, slice ``b`` drawn from ``rngs[b]``.

        Deliberately a per-slice loop over :meth:`_init_parameters`: each
        generator is consumed exactly as :meth:`initialize` would consume it,
        so slice ``b`` is bitwise-identical to a serial initialisation from
        the same generator — the anchor of the vectorized trainer's
        seed-for-seed equivalence contract.
        """
        expected = self.num_parameters()
        rows = []
        for rng in rngs:
            row = np.asarray(self._init_parameters(rng), dtype=float)
            if row.shape != (expected,):
                raise RuntimeError(
                    "model initialisation produced a parameter vector of the "
                    "wrong size"
                )
            rows.append(row)
        if not rows:
            return np.empty((0, expected), dtype=float)
        return np.stack(rows)

    def _gradient_out(
        self, parameters: np.ndarray, out: Optional[np.ndarray]
    ) -> np.ndarray:
        """The ``(B, P)`` array :meth:`batch_gradient` writes into."""
        if out is None:
            return np.empty(parameters.shape)
        if out.shape != parameters.shape or out.dtype != np.float64:
            raise ValueError(
                f"out must be a float64 array of shape {parameters.shape}, "
                f"got {out.dtype} {out.shape}"
            )
        return out

    def batch_gradient(
        self,
        parameters: np.ndarray,
        features: np.ndarray,
        targets: np.ndarray,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Per-slice mini-batch gradients: ``(B, P) × (B, m, ...) → (B, P)``.

        The gradients are written into ``out`` (a fresh array when ``None``),
        which is returned; ``parameters``, ``features`` and ``targets`` are
        never modified.  Reference implementation: a loop over
        :meth:`_gradient`.  Vectorized subclasses replace it with stacked
        linear algebra.
        """
        parameters = self._check_stacked(parameters)
        out = self._gradient_out(parameters, out)
        for b in range(parameters.shape[0]):
            out[b] = self._gradient(parameters[b], features[b], targets[b])
        return out

    def batch_predict(self, parameters: np.ndarray, features: np.ndarray) -> np.ndarray:
        """Predictions of every stacked model on shared features → ``(B, n)``.

        Reference implementation: per-slice :meth:`predict` through a cloned
        engine model.
        """
        parameters = self._check_stacked(parameters)
        engine = self.clone()
        rows = []
        for row in parameters:
            engine.set_parameters(row)
            rows.append(np.asarray(engine.predict(features)))
        if not rows:
            return np.empty((0, len(features)))
        return np.stack(rows)

    def batch_evaluate(self, parameters: np.ndarray, dataset: Dataset) -> np.ndarray:
        """Utility of every stacked model on ``dataset`` → ``(B,)``.

        Always evaluates per slice through a cloned engine model, never
        through batched kernels: given identical final parameters the
        utilities are bitwise-identical to :meth:`evaluate`, which pins the
        vectorized trainer's only possible float divergence inside the
        training matmuls (see ``docs/performance.md``).
        """
        parameters = self._check_stacked(parameters)
        engine = self.clone()
        values = []
        for row in parameters:
            engine.set_parameters(row)
            values.append(float(engine.evaluate(dataset)))
        return np.asarray(values, dtype=float)
