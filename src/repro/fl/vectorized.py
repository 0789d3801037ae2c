"""Vectorized multi-coalition federated training.

One round of "``B`` coalitions × FedAvg" in the serial engine is ``B``
independent Python loops over small NumPy ops; here it is a handful of large
stacked ops.  :class:`VectorizedCoalitionTrainer` trains a whole batch of
coalitions in lockstep: parameters live in a stacked matrix ``(B, P)`` (one
row per coalition model), each client's local epochs run simultaneously for
every coalition that contains the client, and per-coalition aggregation calls
the very same :func:`~repro.fl.aggregation.fedavg_aggregate` the serial
server uses.

Equivalence contract
--------------------
The vectorized engine replays the serial path *seed-for-seed*:

* per-coalition seeds come from
  :meth:`~repro.fl.federation.FederatedTrainer._coalition_seed`, and the
  per-round child generators from the same :func:`~repro.utils.rng.spawn_rng`
  draws, so initialisation, straggler-dropout decisions and every mini-batch
  permutation consume exactly the streams the serial trainer would consume;
* parameter initialisation and the final utility evaluation run through the
  serial code paths per slice, and the batched FedAvg aggregation accumulates
  client updates in the serial order, so all three are bitwise-identical
  given identical inputs;
* the only operations that differ are the gradient matmuls, which are lifted
  one batch axis up with identical per-slice operand shapes.  In practice
  this is bitwise-identical too (BLAS dispatches the same per-slice kernels);
  the documented policy (``docs/performance.md``) only *guarantees* utilities
  within ``PARITY_ATOL`` of the serial path and treats store entries as
  first-writer-wins across backends.

Models opt in via ``supports_vectorized`` (linear, logistic, MLP); everything
else — non-parametric GBDT, the CNN, partial client participation — is
reported by :func:`vectorization_blocker` and transparently falls back to the
serial path in :class:`~repro.parallel.executors.VectorizedExecutor`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence

import numpy as np

from repro.fl.federation import FederatedTrainer
from repro.telemetry import SIZE_BUCKETS
from repro.utils.rng import RandomState, spawn_rng

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry import Telemetry

#: guaranteed absolute utility agreement between the vectorized and serial
#: backends (the measured divergence is ~0: see docs/performance.md)
PARITY_ATOL = 1e-9

#: fraction of available RAM the auto-detected batch budget claims
DEFAULT_MEMORY_FRACTION = 0.25

#: batch budget when available RAM cannot be probed (256 MiB)
FALLBACK_BATCH_BYTES = 256 * 1024 * 1024


def available_memory_bytes() -> Optional[int]:
    """``MemAvailable`` from ``/proc/meminfo`` in bytes, or ``None``.

    Linux-only by design; other platforms (or containers hiding
    ``/proc``) fall back to :data:`FALLBACK_BATCH_BYTES`.
    """
    try:
        with open("/proc/meminfo", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        return None
    return None


def resolve_batch_budget(max_batch_bytes: Optional[int]) -> int:
    """Resolve the stacked-batch byte budget.

    ``None`` auto-detects :data:`DEFAULT_MEMORY_FRACTION` of available RAM
    (falling back to :data:`FALLBACK_BATCH_BYTES` when it cannot be probed);
    an explicit integer overrides the detection unconditionally.
    """
    if max_batch_bytes is not None:
        budget = int(max_batch_bytes)
        if budget < 1:
            raise ValueError(f"max_batch_bytes must be >= 1, got {budget}")
        return budget
    available = available_memory_bytes()
    if available is None:
        return FALLBACK_BATCH_BYTES
    return max(1, int(available * DEFAULT_MEMORY_FRACTION))


def vectorization_blocker(trainer: FederatedTrainer) -> Optional[str]:
    """Why ``trainer`` cannot be trained on the vectorized path, or ``None``.

    The conditions mirror the serial semantics the vectorized engine can
    replay exactly; anything else must fall back to per-coalition training.
    """
    probe = trainer._probe
    if not trainer._parametric:
        return (
            f"{type(probe).__name__} is non-parametric: coalitions train on "
            "pooled data, there is no parameter matrix to stack"
        )
    if not getattr(probe, "supports_vectorized", False):
        return f"{type(probe).__name__} implements no vectorized batched kernels"
    if probe.is_initialized:
        return (
            "the model factory pre-initializes parameters; the FL server "
            "would skip seed-derived initialisation"
        )
    if trainer.config.client_fraction < 1.0:
        return (
            "client_fraction < 1 samples a different participant subset per "
            "coalition and round; lockstep training requires full participation"
        )
    return None


class VectorizedCoalitionTrainer:
    """Trains batches of coalitions in lockstep on stacked parameters.

    Parameters
    ----------
    trainer:
        The serial :class:`~repro.fl.federation.FederatedTrainer` whose
        semantics (datasets, model factory, config, seed derivation, dropout)
        this engine replays.  Raises :class:`ValueError` with the
        :func:`vectorization_blocker` reason when the trainer cannot be
        vectorized.
    chunk_size:
        Maximum number of coalitions trained in one stacked batch; larger
        batches amortise more Python overhead but hold ``chunk_size ×
        coalition-size × P`` floats of local parameters per round.
    max_batch_bytes:
        Memory budget for one stacked batch.  Batches are additionally
        packed by estimated footprint (see :meth:`estimated_batch_bytes`):
        a chunk closes as soon as adding the next coalition would exceed the
        budget, so a 500-client stratum streams through in RAM-sized slices
        instead of one giant stack.  ``None`` (the default) auto-detects
        :data:`DEFAULT_MEMORY_FRACTION` of available RAM; chunk boundaries
        are seed-for-seed value-invariant (per-coalition seeds), so any
        budget produces bitwise-identical utilities.
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry` handle; each stacked
        chunk then runs inside a ``vectorized.chunk`` span with its size and
        estimated bytes attached.  Observational only — chunk planning,
        seeds and values are identical with or without it.
    """

    def __init__(
        self,
        trainer: FederatedTrainer,
        chunk_size: int = 64,
        max_batch_bytes: Optional[int] = None,
        telemetry: "Optional[Telemetry]" = None,
    ) -> None:
        blocker = vectorization_blocker(trainer)
        if blocker is not None:
            raise ValueError(f"trainer cannot be vectorized: {blocker}")
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        self.trainer = trainer
        self.model = trainer._probe
        self.chunk_size = int(chunk_size)
        self.max_batch_bytes = resolve_batch_budget(max_batch_bytes)
        self.telemetry = telemetry
        # Per dataset size: stacked (features, targets, client → row) over
        # *all* non-empty clients of that size; built lazily, reused by every
        # batch (client data never changes under a trainer).
        self._stacks: Optional[dict] = None

    def set_telemetry(self, telemetry: "Optional[Telemetry]") -> None:
        """Attach (or detach with ``None``) the telemetry handle."""
        self.telemetry = telemetry

    @property
    def n_clients(self) -> int:
        return self.trainer.n_clients

    # ------------------------------------------------------------------ #
    # Public interface
    # ------------------------------------------------------------------ #
    def utilities(self, coalitions: Iterable[Iterable[int]]) -> List[float]:
        """Utilities ``U(M_S)`` for a batch of coalitions, in input order.

        Seed-for-seed equivalent to ``[trainer.utility(S) for S in ...]``;
        duplicates are simply trained twice (callers that care deduplicate —
        the batch oracle does).
        """
        keys = [frozenset(int(c) for c in coalition) for coalition in coalitions]
        for key in keys:
            invalid = [m for m in key if not 0 <= m < self.n_clients]
            if invalid:
                raise ValueError(f"unknown client ids in coalition: {invalid}")
        values: List[float] = []
        telemetry = self.telemetry
        for chunk in self.plan_chunks(keys):
            if telemetry is not None:
                with telemetry.span(
                    "vectorized.chunk",
                    size=len(chunk),
                    est_bytes=self.estimated_batch_bytes(chunk),
                ):
                    telemetry.observe("vectorized.chunk_size", len(chunk), SIZE_BUCKETS)
                    parameters = self.train_parameters(chunk)
                    evaluated = self.model.batch_evaluate(
                        parameters, self.trainer.test_dataset
                    )
            else:
                parameters = self.train_parameters(chunk)
                evaluated = self.model.batch_evaluate(
                    parameters, self.trainer.test_dataset
                )
            values.extend(float(v) for v in evaluated)
        return values

    # ------------------------------------------------------------------ #
    # Memory-budgeted batch planning
    # ------------------------------------------------------------------ #
    def estimated_coalition_bytes(self, coalition: frozenset) -> int:
        """Estimated stacked-training footprint of one coalition, in bytes.

        Counts the float64 tensors whose size scales with the batch:

        * the coalition's parameter row (P);
        * two rows per member (2·|S|·P).  While its size group trains, a
          member holds its local parameter row and its row of the group's
          gradient buffer; at aggregation, its local row and its row of the
          update stack.  A regularised step (``l2 > 0`` or FedProx) holds a
          third, scratch row per member of the group in training, which is
          not counted;
        * twice the member datasets for the permuted feature/target
          gathers.  Each group gathers into one reused buffer, so this
          over-counts by one dataset copy; correcting it would move chunk
          boundaries, and with them every large-federation run's packing.

        It is a packing heuristic, not a bound: per-step activations are not
        counted either.  Fixed engine state (the shared client data stacks, the
        model) is excluded — it does not grow with the batch, so it has no
        business in the packing decision.
        """
        members = sorted(
            self.trainer._effective_members(frozenset(coalition))
        )
        itemsize = 8
        n_parameters = self.model.num_parameters()
        parameter_floats = n_parameters * (1 + 2 * len(members))
        data_floats = 0
        datasets = self.trainer.client_datasets
        for client in members:
            dataset = datasets[client]
            data_floats += 2 * (
                int(np.asarray(dataset.features).size)
                + int(np.asarray(dataset.targets).size)
            )
        return itemsize * (parameter_floats + data_floats)

    def estimated_batch_bytes(self, coalitions: Sequence[frozenset]) -> int:
        """Estimated footprint of training the given coalitions as one stack."""
        return sum(self.estimated_coalition_bytes(key) for key in coalitions)

    def plan_chunks(self, keys: Sequence[frozenset]) -> List[List[frozenset]]:
        """Split a batch into chunks respecting both caps, in input order.

        Greedy packing: a chunk closes when it holds ``chunk_size``
        coalitions or when the next coalition's estimated footprint would
        push it past ``max_batch_bytes``.  Every chunk holds at least one
        coalition (an oversized single coalition still trains — the budget
        bounds *batching* overhead, it cannot shrink one model).  Chunk
        boundaries never change utilities: per-coalition seeds make slices
        independent, so packing is free to follow the RAM budget.
        """
        chunks: List[List[frozenset]] = []
        current: List[frozenset] = []
        current_bytes = 0
        for key in keys:
            cost = self.estimated_coalition_bytes(key)
            if current and (
                len(current) >= self.chunk_size
                or current_bytes + cost > self.max_batch_bytes
            ):
                chunks.append(current)
                current = []
                current_bytes = 0
            current.append(key)
            current_bytes += cost
        if current:
            chunks.append(current)
        return chunks

    def train_parameters(self, coalitions: Sequence[frozenset]) -> np.ndarray:
        """Final global parameters of every coalition's FL run → ``(B, P)``."""
        trainer = self.trainer
        model = self.model
        config = trainer.config
        members = [
            sorted(trainer._effective_members(frozenset(key))) for key in coalitions
        ]
        # One generator per coalition, seeded exactly like the serial path;
        # initialisation consumes it first, the round loop continues on it.
        rngs = [
            RandomState(trainer._coalition_seed(frozenset(m))) for m in members
        ]
        parameters = model.batch_init_parameters(rngs)
        active = [b for b in range(len(members)) if members[b]]
        if not active:
            return parameters

        datasets = trainer.client_datasets
        batch_size = (
            int(config.batch_size)
            if config.batch_size is not None
            else int(model.batch_size)
        )
        proximal_mu = config.proximal_mu if config.algorithm == "fedprox" else 0.0

        # A training *slice* is one (coalition, client) pair.  Slices are
        # independent given their parameters and generators, so any set of
        # slices whose datasets have equal length can run its local epochs in
        # one stacked call — grouping by dataset size (not by client) is what
        # turns "B coalitions × FedAvg" into a handful of large ops per
        # mini-batch step.  The group structure is membership-derived and
        # constant across rounds, so it is built once.
        groups = self._size_groups(members, active)

        # FedAvg aggregation, batched by coalition size: summing the stacked
        # ``(B_k, k, P)`` update tensor over its client axis accumulates in
        # the same order as the serial per-coalition ``sum(axis=0)``, so the
        # aggregate is bitwise-identical to fedavg_aggregate per coalition.
        # The normalised weights only depend on membership — precompute them.
        aggregation = []
        by_coalition_size: dict[int, list[int]] = {}
        for b in active:
            by_coalition_size.setdefault(len(members[b]), []).append(b)
        for k in sorted(by_coalition_size):
            bs = by_coalition_size[k]
            weights = np.asarray(
                [[float(len(datasets[c])) for c in members[b]] for b in bs]
            )
            normalized = weights / weights.sum(axis=1, keepdims=True)
            aggregation.append((np.asarray(bs), [members[b] for b in bs], normalized))

        for _round in range(config.rounds):
            # Per coalition: one spawn_rng draw, exactly as the serial server
            # does per round, yielding one child generator per participant.
            children = {}
            for b in active:
                spawned = spawn_rng(rngs[b], len(members[b]))
                for position, client in enumerate(members[b]):
                    children[(b, client)] = spawned[position]

            updated: dict[tuple[int, int], np.ndarray] = {}
            for group in groups:
                self._train_group(
                    group,
                    parameters,
                    children,
                    updated,
                    batch_size=batch_size,
                    proximal_mu=proximal_mu,
                )

            for index_array, member_lists, normalized in aggregation:
                rows = np.stack(
                    [
                        updated[(b, client)]
                        for b, coalition in zip(index_array, member_lists)
                        for client in coalition
                    ]
                )
                stacked = rows.reshape(len(index_array), -1, parameters.shape[1])
                np.multiply(stacked, normalized[:, :, None], out=stacked)
                parameters[index_array] = stacked.sum(axis=1)
        return parameters

    # ------------------------------------------------------------------ #
    # Lockstep local training
    # ------------------------------------------------------------------ #
    def _client_stacks(self) -> dict:
        """Stacked client data per dataset size, built once per engine."""
        if self._stacks is None:
            datasets = self.trainer.client_datasets
            by_size: dict[int, list[int]] = {}
            for client, dataset in enumerate(datasets):
                if len(dataset) > 0:
                    by_size.setdefault(len(dataset), []).append(client)
            self._stacks = {
                size: {
                    "features": np.stack([datasets[c].features for c in clients]),
                    "targets": np.stack([datasets[c].targets for c in clients]),
                    "row_of": {c: row for row, c in enumerate(clients)},
                }
                for size, clients in by_size.items()
            }
        return self._stacks

    def _size_groups(
        self, members: Sequence[Sequence[int]], active: Sequence[int]
    ) -> list[dict]:
        """Group (coalition, client) slices by dataset length.

        Each group references the engine's stacked features/targets for that
        size plus, per slice, the row index into the stack — so one
        fancy-index gather per epoch produces every slice's permuted data.
        """
        datasets = self.trainer.client_datasets
        stacks = self._client_stacks()
        by_size: dict[int, list[tuple[int, int]]] = {}
        for b in active:
            for client in members[b]:
                by_size.setdefault(len(datasets[client]), []).append((b, client))
        groups = []
        for size in sorted(by_size):
            slices = by_size[size]
            stack = stacks[size]
            groups.append(
                {
                    "size": size,
                    "slices": slices,
                    "features": stack["features"],
                    "targets": stack["targets"],
                    "client_rows": np.asarray(
                        [stack["row_of"][client] for _, client in slices]
                    ),
                }
            )
        return groups

    def _train_group(
        self,
        group: dict,
        parameters: np.ndarray,
        children: dict,
        updated: dict,
        batch_size: int,
        proximal_mu: float,
    ) -> None:
        """Run one round's local updates for every slice of one size group."""
        trainer = self.trainer
        model = self.model
        config = trainer.config
        n = group["size"]

        # Straggler dropout per slice: consume the drop decision from the
        # slice's child stream, then hand the same stream on to local
        # training — mirroring FLClient.local_update.  A dropped slice
        # reports the round-start global parameters back unchanged.
        if trainer.client_dropout is None:
            live = group["slices"]
            client_rows = group["client_rows"]
        else:
            live = []
            live_rows: list[int] = []
            for index, (b, client) in enumerate(group["slices"]):
                dropout_p = trainer.client_dropout[client]
                if dropout_p > 0.0 and children[(b, client)].uniform() < dropout_p:
                    updated[(b, client)] = parameters[b].copy()
                else:
                    live.append((b, client))
                    live_rows.append(index)
            if not live:
                return
            client_rows = group["client_rows"][np.asarray(live_rows)]

        # A fresh (Bt, P) copy per call, updated in place; ``updated`` keeps
        # views of its rows until the round's aggregation reads them.
        stacked = parameters[np.asarray([b for b, _ in live])]
        gens = [children[key] for key in live]
        features = group["features"]
        targets = group["targets"]
        learning_rate = model.learning_rate
        # Every step writes into per-group (Bt, P) buffers instead of
        # allocating fresh temporaries: the same ufuncs on the same operands
        # in the serial order (``grad + l2 * params``, ``params - lr * grad``),
        # so the bits do not change.  At stack sizes of a few hundred slices
        # each temporary would be a fresh mmap-sized allocation per step.
        grad = np.empty_like(stacked)

        if config.algorithm == "fedsgd":
            # A single full-batch step from the global parameters; the serial
            # client applies neither L2 nor the proximal term here.
            model.batch_gradient(
                stacked, features[client_rows], targets[client_rows], out=grad
            )
            np.multiply(learning_rate, grad, out=grad)
            np.subtract(stacked, grad, out=stacked)
        else:
            reference = stacked.copy() if proximal_mu > 0.0 else None
            regularized = model.l2 > 0 or reference is not None
            scratch = np.empty_like(stacked) if regularized else None
            # One gather per epoch into reused buffers: row r of the permuted
            # stack is slice r's client data in slice r's mini-batch order,
            # row-identical to the serial per-step indexing.  ``take`` reads
            # the stacks flattened over (client, sample); mode="clip" only
            # skips the bounds-checking copy — the indices come from
            # permutations of range(n) and are always in range.
            flat_features = features.reshape((-1,) + features.shape[2:])
            flat_targets = targets.reshape(-1)
            row_offsets = (client_rows * n)[:, None]
            permuted_features = np.empty(
                (len(live), n) + features.shape[2:], dtype=features.dtype
            )
            permuted_targets = np.empty((len(live), n), dtype=targets.dtype)
            for _epoch in range(config.local_epochs):
                index = np.stack([gen.permutation(n) for gen in gens])
                index += row_offsets
                np.take(
                    flat_features, index, axis=0, out=permuted_features, mode="clip"
                )
                np.take(flat_targets, index, out=permuted_targets, mode="clip")
                for start in range(0, n, batch_size):
                    stop = start + batch_size
                    model.batch_gradient(
                        stacked,
                        permuted_features[:, start:stop],
                        permuted_targets[:, start:stop],
                        out=grad,
                    )
                    if model.l2 > 0:
                        np.multiply(model.l2, stacked, out=scratch)
                        np.add(grad, scratch, out=grad)
                    if reference is not None:
                        np.subtract(stacked, reference, out=scratch)
                        np.multiply(proximal_mu, scratch, out=scratch)
                        np.add(grad, scratch, out=grad)
                    np.multiply(learning_rate, grad, out=grad)
                    np.subtract(stacked, grad, out=stacked)

        for j, key in enumerate(live):
            updated[key] = stacked[j]
