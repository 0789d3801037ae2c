"""Builders that turn a paper experiment setup into a coalition-utility oracle.

Every experiment in Sec. V starts from the same recipe: generate (or load) a
dataset, partition it across ``n`` FL clients according to the setup, choose
an FL model, and wrap the whole thing in a utility oracle ``U(S)``.  The
builders here produce :class:`~repro.fl.utility.CoalitionUtility` objects for

* the five synthetic MNIST-style setups (Fig. 6 a–e),
* the FEMNIST-style experiments (Table IV, Fig. 1b, 4, 7, 8, 9, 10), and
* the Adult-style experiments (Table V).

Every builder has a deterministic *fingerprint*: the stable content address
of the task it builds (:func:`task_fingerprint`), covering the task kind, all
structural parameters, the full :class:`ExperimentScale` and the seed.  The
fingerprint namespaces the task's coalitions in a persistent
:class:`~repro.store.UtilityStore` — pass ``store=`` to any builder and its
trained utilities survive the process, keyed so that no other task (or other
seed/scale of the same task) can alias them.
"""

from __future__ import annotations

import numbers
from functools import partial
from typing import Callable, Optional, Sequence

from repro.datasets import (
    Dataset,
    add_feature_noise,
    flip_labels,
    make_adult_like,
    make_femnist_like,
    make_mnist_like,
    partition_by_group,
    partition_different_sizes,
    partition_iid,
    partition_label_skew,
    train_test_split,
)
from repro.experiments.config import ExperimentScale
from repro.fl import CoalitionUtility, FLConfig
from repro.models import (
    GradientBoostedTrees,
    LogisticRegressionModel,
    MLPClassifier,
    SimpleCNN,
)
from repro.store import FINGERPRINT_SCHEMA_VERSION, StoreLike, fingerprint
from repro.utils.rng import RandomState, SeedLike, spawn_rng

#: identifiers of the paper's five synthetic setups (Fig. 6 a–e)
SYNTHETIC_SETUPS = (
    "same-size-same-distribution",
    "same-size-different-distribution",
    "different-size-same-distribution",
    "same-size-noisy-label",
    "same-size-noisy-feature",
)

MODEL_NAMES = ("mlp", "cnn", "logistic", "xgb")


def _model_factory(
    model: str,
    n_features: int,
    n_classes: int,
    image_size: int,
    scale: ExperimentScale,
) -> Callable:
    """Build a zero-argument factory for the requested FL model family.

    Factories are :func:`functools.partial` objects rather than lambdas so
    they pickle: a task's evaluator, model factory included, must survive a
    trip to another process (``tests/test_picklability.py``, rule RPR004).
    """
    if model == "mlp":
        # Small batches keep the number of SGD steps per FL round high enough
        # that a coalition's model actually fits its data; otherwise the
        # utility stays flat and every valuation degenerates.
        return partial(
            MLPClassifier,
            n_features=n_features,
            n_classes=n_classes,
            hidden_sizes=(scale.mlp_hidden,),
            learning_rate=0.5,
            batch_size=10,
        )
    if model == "cnn":
        return partial(
            SimpleCNN,
            image_size=image_size,
            n_classes=n_classes,
            n_filters=scale.cnn_filters,
            learning_rate=0.4,
            batch_size=10,
        )
    if model == "logistic":
        return partial(
            LogisticRegressionModel,
            n_features=n_features,
            n_classes=n_classes,
            learning_rate=0.5,
            batch_size=16,
        )
    if model == "xgb":
        return partial(
            GradientBoostedTrees,
            n_classes=n_classes,
            n_rounds=scale.gbdt_rounds,
            max_depth=3,
        )
    raise ValueError(f"unknown model {model!r}; choose from {MODEL_NAMES}")


def _fl_config(scale: ExperimentScale) -> FLConfig:
    return FLConfig(rounds=scale.fl_rounds, local_epochs=scale.local_epochs)


def task_fingerprint(
    kind: str,
    scale: ExperimentScale,
    seed: SeedLike,
    **params,
) -> Optional[str]:
    """Stable content address of a task built by this module.

    Covers everything that determines a coalition's trained utility: the task
    kind, its structural parameters (client count, model, setup, noise,
    special clients), the *full* scale (dataset sizes, FL rounds, model
    widths) and the seed.  Returns ``None`` when the seed is a live RNG
    rather than an integer — such a task is not reproducible, so it has no
    content address (and must not be persisted).
    """
    if seed is None or not isinstance(seed, numbers.Integral):
        return None
    payload = {
        "schema": FINGERPRINT_SCHEMA_VERSION,
        "task": kind,
        "scale": scale,
        "seed": int(seed),
        "params": params,
    }
    return fingerprint(payload)


def _wrap(
    clients: Sequence[Dataset],
    test: Dataset,
    model: str,
    scale: ExperimentScale,
    image_size: int,
    n_classes: int,
    seed: SeedLike,
    store: StoreLike = None,
    task_key: Optional[str] = None,
    client_dropout: Optional[Sequence[float]] = None,
) -> CoalitionUtility:
    if store is not None and task_key is None:
        raise ValueError(
            "a persistent store requires a reproducible task: pass an integer "
            "seed so the task has a deterministic fingerprint"
        )
    factory = _model_factory(
        model,
        n_features=test.n_features,
        n_classes=n_classes,
        image_size=image_size,
        scale=scale,
    )
    utility = CoalitionUtility(
        client_datasets=list(clients),
        test_dataset=test,
        model_factory=factory,
        config=_fl_config(scale),
        seed=seed,
        store=store,
        store_namespace=task_key,
        client_dropout=client_dropout,
    )
    utility.task_fingerprint = task_key
    return utility


# --------------------------------------------------------------------------- #
# Synthetic MNIST-style setups (Fig. 6)
# --------------------------------------------------------------------------- #
def build_synthetic_task(
    setup: str,
    n_clients: int = 10,
    model: str = "mlp",
    scale: Optional[ExperimentScale] = None,
    noise_level: float = 0.2,
    seed: SeedLike = 0,
    store: StoreLike = None,
) -> CoalitionUtility:
    """Build the coalition-utility oracle for one of the five synthetic setups.

    Parameters
    ----------
    setup:
        One of :data:`SYNTHETIC_SETUPS`.
    noise_level:
        Label-flip fraction (setup d) or feature-noise scale (setup e); the
        paper sweeps 0.00–0.20.  Ignored by the other setups.
    store:
        Optional persistent utility store (instance or path); trained
        coalition utilities are shared across processes and runs under this
        task's fingerprint.
    """
    if setup not in SYNTHETIC_SETUPS:
        raise ValueError(f"unknown setup {setup!r}; choose from {SYNTHETIC_SETUPS}")
    scale = scale or ExperimentScale.small()
    task_key = task_fingerprint(
        "synthetic",
        scale,
        seed,
        setup=setup,
        n_clients=n_clients,
        model=model,
        noise_level=float(noise_level),
    )
    rng = RandomState(seed)
    data_rng, split_rng, noise_rng, utility_rng = spawn_rng(rng, 4)

    pooled = make_mnist_like(
        n_samples=scale.samples_per_client * n_clients + scale.test_samples,
        image_size=scale.image_size,
        seed=data_rng,
    )
    train, test = train_test_split(
        pooled,
        test_fraction=scale.test_samples / len(pooled),
        seed=split_rng,
    )

    if setup == "same-size-same-distribution":
        clients = partition_iid(train, n_clients, seed=split_rng)
    elif setup == "same-size-different-distribution":
        clients = partition_label_skew(train, n_clients, seed=split_rng)
    elif setup == "different-size-same-distribution":
        clients = partition_different_sizes(train, n_clients, seed=split_rng)
    elif setup == "same-size-noisy-label":
        clients = partition_iid(train, n_clients, seed=split_rng)
        noise_rngs = spawn_rng(noise_rng, n_clients)
        # Noise severity grows with the client index, so clients genuinely
        # differ in quality — which is what the valuation should detect.
        clients = [
            flip_labels(client, noise_level * index / max(1, n_clients - 1), seed=r)
            for index, (client, r) in enumerate(zip(clients, noise_rngs))
        ]
    else:  # same-size-noisy-feature
        clients = partition_iid(train, n_clients, seed=split_rng)
        noise_rngs = spawn_rng(noise_rng, n_clients)
        clients = [
            add_feature_noise(client, noise_level * index / max(1, n_clients - 1), seed=r)
            for index, (client, r) in enumerate(zip(clients, noise_rngs))
        ]

    return _wrap(
        clients,
        test,
        model=model,
        scale=scale,
        image_size=scale.image_size,
        n_classes=pooled.num_classes,
        seed=utility_rng,
        store=store,
        task_key=task_key,
    )


# --------------------------------------------------------------------------- #
# FEMNIST-style task (Table IV and most figures)
# --------------------------------------------------------------------------- #
def build_femnist_task(
    n_clients: int = 10,
    model: str = "mlp",
    scale: Optional[ExperimentScale] = None,
    n_null_clients: int = 0,
    n_duplicate_clients: int = 0,
    seed: SeedLike = 0,
    store: StoreLike = None,
) -> tuple[CoalitionUtility, dict]:
    """Writer-partitioned FEMNIST-style task.

    ``n_null_clients`` clients are given empty datasets and
    ``n_duplicate_clients`` clients are given a copy of client 0's dataset —
    the construction used by the Fig. 9 scalability experiment, where the
    no-free-rider / symmetric-fairness axioms serve as error proxies.

    Returns the utility oracle plus an info dict with the ``null_clients``
    indices and ``duplicate_groups`` needed by the proxy metrics.
    """
    scale = scale or ExperimentScale.small()
    task_key = task_fingerprint(
        "femnist",
        scale,
        seed,
        n_clients=n_clients,
        model=model,
        n_null_clients=n_null_clients,
        n_duplicate_clients=n_duplicate_clients,
    )
    rng = RandomState(seed)
    data_rng, split_rng, utility_rng = spawn_rng(rng, 3)

    regular_clients = n_clients - n_null_clients - n_duplicate_clients
    if regular_clients < 1:
        raise ValueError("need at least one regular (non-null, non-duplicate) client")

    pooled = make_femnist_like(
        n_samples=scale.samples_per_client * regular_clients + scale.test_samples,
        n_writers=max(2 * regular_clients, 4),
        image_size=scale.image_size,
        seed=data_rng,
    )
    train, test = train_test_split(
        pooled,
        test_fraction=scale.test_samples / len(pooled),
        seed=split_rng,
    )
    clients = partition_by_group(train, regular_clients, seed=split_rng)

    duplicate_groups: list[list[int]] = []
    if n_duplicate_clients > 0:
        source = clients[0]
        group = [0]
        for _ in range(n_duplicate_clients):
            clients.append(source.copy())
            group.append(len(clients) - 1)
        duplicate_groups.append(group)

    null_clients: list[int] = []
    for _ in range(n_null_clients):
        clients.append(Dataset.empty_like(test, name="null-client"))
        null_clients.append(len(clients) - 1)

    utility = _wrap(
        clients,
        test,
        model=model,
        scale=scale,
        image_size=scale.image_size,
        n_classes=pooled.num_classes,
        seed=utility_rng,
        store=store,
        task_key=task_key,
    )
    info = {
        "null_clients": null_clients,
        "duplicate_groups": duplicate_groups,
        "n_clients": len(clients),
    }
    return utility, info


# --------------------------------------------------------------------------- #
# Adult-style task (Table V)
# --------------------------------------------------------------------------- #
def build_adult_task(
    n_clients: int = 10,
    model: str = "mlp",
    scale: Optional[ExperimentScale] = None,
    seed: SeedLike = 0,
    store: StoreLike = None,
) -> CoalitionUtility:
    """Occupation-partitioned Adult-style tabular task (MLP or XGBoost model)."""
    scale = scale or ExperimentScale.small()
    task_key = task_fingerprint(
        "adult", scale, seed, n_clients=n_clients, model=model
    )
    rng = RandomState(seed)
    data_rng, split_rng, utility_rng = spawn_rng(rng, 3)

    pooled = make_adult_like(
        n_samples=scale.samples_per_client * n_clients + scale.test_samples,
        n_occupations=max(2 * n_clients, 12),
        seed=data_rng,
    )
    train, test = train_test_split(
        pooled,
        test_fraction=scale.test_samples / len(pooled),
        seed=split_rng,
    )
    clients = partition_by_group(train, n_clients, seed=split_rng)
    return _wrap(
        clients,
        test,
        model=model,
        scale=scale,
        image_size=scale.image_size,
        n_classes=2,
        seed=utility_rng,
        store=store,
        task_key=task_key,
    )
