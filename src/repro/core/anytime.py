"""Anytime-valuation protocol: snapshots, checkpointable state, stopping rules.

Every sampling-based estimator in the paper is a loop whose estimate improves
monotonically with the number of coalition evaluations spent.  This module
defines the vocabulary that turns those loops into *anytime* estimators:

* :class:`EstimatorState` — the complete, JSON-serialisable state of a
  half-finished estimation: the RNG bit-generator state, the algorithm's
  running sums / evaluated-utility table (the *payload*), and the cost
  counters.  Restoring a state and consuming the rest of the run produces
  values bitwise-identical to an uninterrupted run.
* :class:`ValuationSnapshot` — what :meth:`ValuationAlgorithm.iter_run` yields
  after every incremental chunk: the current estimate, per-client standard
  errors (where the estimator defines them), per-client sample counts, and the
  evaluations/wall-clock spent so far.
* :class:`StoppingRule` and friends — composable budget / convergence /
  wall-clock early-stop predicates consumed by ``run(stopping_rule=...)``,
  the pipeline and the CLI (``repro run --stop-on``).

The serialisation here is deliberately lossless: floats round-trip through
``repr`` (Python's ``json`` guarantees shortest-round-trip encoding), numpy
arrays carry their dtype, and insertion order of coalition→utility tables is
preserved — the order is load-bearing, because the final reduction folds
floats in table order.  Coalition tables and coalition lists are written as
flat int arrays (``state_format`` 2); format-1 checkpoints, which wrote one
tagged object per coalition, still load.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, field
from statistics import NormalDist
from typing import Any, Dict, Iterable, List, NamedTuple, Optional, Sequence

import numpy as np

from repro.core.result import ValuationResult

STATE_FORMAT_VERSION = 2
#: every ``state_format`` :meth:`EstimatorState.from_dict` reads
READABLE_STATE_FORMATS = (1, 2)

#: two-sided normal quantiles for the common confidence levels; pinned, since
#: ``NormalDist`` differs from them in the last bits, which would move CI
#: widths and ``ci:`` stop points
_Z_BY_LEVEL = {0.90: 1.6448536269514722, 0.95: 1.959963984540054, 0.99: 2.5758293035489004}


def normal_quantile(level: float) -> float:
    """Two-sided normal quantile ``z`` such that P(|Z| <= z) = level."""
    if not 0.0 < level < 1.0:
        raise ValueError(f"confidence level must lie in (0, 1), got {level}")
    if level in _Z_BY_LEVEL:
        return _Z_BY_LEVEL[level]
    return NormalDist().inv_cdf(0.5 + level / 2.0)


# --------------------------------------------------------------------------- #
# RNG state capture / restore
# --------------------------------------------------------------------------- #
def _plain(value):
    """Recursively convert numpy scalars inside an RNG state dict to Python."""
    if isinstance(value, dict):
        return {key: _plain(inner) for key, inner in value.items()}
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    return value


def capture_rng_state(rng: np.random.Generator) -> dict:
    """Snapshot a generator's bit-generator state as a JSON-safe dict."""
    return _plain(rng.bit_generator.state)


def restore_rng(state: dict) -> np.random.Generator:
    """Rebuild a generator that will continue the captured stream exactly."""
    name = state.get("bit_generator")
    bit_generator_cls = getattr(np.random, str(name), None)
    if bit_generator_cls is None:
        raise ValueError(f"unknown bit generator {name!r} in estimator state")
    bit_generator = bit_generator_cls()
    bit_generator.state = state
    return np.random.Generator(bit_generator)


# --------------------------------------------------------------------------- #
# Payload (de)serialisation
# --------------------------------------------------------------------------- #
def _coalition_columns(coalitions) -> dict:
    """Flat-array record of a coalition sequence: ``n`` holds each
    coalition's member count, ``m`` all members, sorted per coalition."""
    sizes = []
    members = []
    for coalition in coalitions:
        sizes.append(len(coalition))
        members.extend(sorted(map(int, coalition)))
    return {"__t": "fsarr", "n": sizes, "m": members}


def _coalitions_from_columns(record) -> list:
    coalitions = []
    members = record["m"]
    start = 0
    for size in record["n"]:
        coalitions.append(frozenset(members[start : start + size]))
        start += size
    return coalitions


def encode_state_value(value):
    """Encode a payload value into JSON-safe, type-tagged form.

    Handles the structures estimator payloads are built from: numpy arrays
    (dtype-tagged), frozenset coalitions, coalition-keyed and int-keyed dicts
    (order preserved — it is load-bearing for bitwise-reproducible folds),
    plus plain scalars/lists/str-keyed dicts.  A str-keyed dict with a
    ``"__t"`` key of its own is wrapped in an ``smap`` record so the key is
    not read back as a type tag.

    A coalition-keyed dict becomes one ``fsarr`` record — member counts,
    flattened sorted members and the values in insertion order — and a list
    or tuple of coalitions the same record without values, so a table of
    thousands of coalitions encodes as three flat arrays.

    Branches run in order of how often large payloads hit them: plain
    floats/ints/strs and lists by exact type (``bool`` and numpy scalars are
    subclasses or lookalikes and fall through to their own branches below),
    then coalitions and coalition-keyed tables.
    """
    kind = type(value)
    if kind is float or kind is int or kind is str or value is None:
        return value
    if kind is list or kind is tuple:
        if value and all(isinstance(inner, frozenset) for inner in value):
            return _coalition_columns(value)
        return [encode_state_value(inner) for inner in value]
    if isinstance(value, frozenset):
        return {"__t": "fs", "v": sorted(map(int, value))}
    if isinstance(value, np.ndarray):
        return {"__t": "nd", "dtype": str(value.dtype), "v": value.tolist()}
    if isinstance(value, dict):
        if value and all(isinstance(key, frozenset) for key in value):
            record = _coalition_columns(value)
            inner = list(value.values())
            if not all(type(item) is float for item in inner):
                inner = [encode_state_value(item) for item in inner]
            record["v"] = inner
            return record
        if all(isinstance(key, str) for key in value):
            encoded = {key: encode_state_value(inner) for key, inner in value.items()}
            if "__t" in value:
                # a "__t" key of its own would read back as a type tag
                return {"__t": "smap", "v": encoded}
            return encoded
        if all(isinstance(key, (int, np.integer)) for key in value):
            return {
                "__t": "imap",
                "v": [[int(key), encode_state_value(inner)] for key, inner in value.items()],
            }
        raise TypeError(f"unsupported payload dict key types: {list(value)[:3]!r}")
    if isinstance(value, (list, tuple)):
        return [encode_state_value(inner) for inner in value]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    raise TypeError(f"unsupported payload value type: {type(value).__name__}")


def decode_state_value(value):
    """Inverse of :func:`encode_state_value`; also reads format-1 ``fs`` /
    ``fsmap`` records."""
    if isinstance(value, dict):
        tag = value.get("__t")
        if tag == "fsarr":
            coalitions = _coalitions_from_columns(value)
            if "v" not in value:
                return coalitions
            return {
                coalition: decode_state_value(inner)
                for coalition, inner in zip(coalitions, value["v"])
            }
        if tag == "nd":
            return np.asarray(value["v"], dtype=np.dtype(value["dtype"]))
        if tag == "fs":
            return frozenset(int(m) for m in value["v"])
        if tag == "fsmap":
            return {
                frozenset(int(m) for m in members): decode_state_value(inner)
                for members, inner in value["v"]
            }
        if tag == "imap":
            return {int(key): decode_state_value(inner) for key, inner in value["v"]}
        if tag == "smap":
            value = value["v"]
        return {key: decode_state_value(inner) for key, inner in value.items()}
    if isinstance(value, list):
        return [decode_state_value(inner) for inner in value]
    return value


# --------------------------------------------------------------------------- #
# Estimator state
# --------------------------------------------------------------------------- #
@dataclass
class EstimatorState:
    """Checkpointable state of a half-finished valuation.

    ``payload`` holds the algorithm-specific running structures (evaluated
    utilities, running sums/counts, sampling plans) as live Python/numpy
    objects; :meth:`to_dict` encodes them losslessly for JSON persistence and
    :meth:`from_dict` restores them.  ``config`` pins the algorithm parameters
    the state was produced under, so a checkpoint cannot silently resume under
    a different budget or scheme.
    """

    algorithm: str
    n_clients: int
    config: Dict[str, Any] = field(default_factory=dict)
    rng_state: Optional[dict] = None
    payload: Dict[str, Any] = field(default_factory=dict)
    chunk_index: int = 0
    evaluations: int = 0
    elapsed_seconds: float = 0.0
    done: bool = False
    values: Optional[np.ndarray] = None
    stderr: Optional[np.ndarray] = None
    n_samples: Optional[np.ndarray] = None

    def to_dict(self) -> dict:
        """Lossless JSON form of the state (the checkpoint file format)."""

        def _array(value):
            return None if value is None else np.asarray(value, dtype=float).tolist()

        return {
            "state_format": STATE_FORMAT_VERSION,
            "algorithm": self.algorithm,
            "n_clients": int(self.n_clients),
            "config": dict(self.config),
            "rng_state": self.rng_state,
            "payload": encode_state_value(self.payload),
            "chunk_index": int(self.chunk_index),
            "evaluations": int(self.evaluations),
            "elapsed_seconds": float(self.elapsed_seconds),
            "done": bool(self.done),
            "values": _array(self.values),
            "stderr": _array(self.stderr),
            "n_samples": _array(self.n_samples),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "EstimatorState":
        fmt = payload.get("state_format")
        if fmt not in READABLE_STATE_FORMATS:
            raise ValueError(
                f"unsupported estimator-state format {fmt!r} "
                f"(this build reads formats {', '.join(map(str, READABLE_STATE_FORMATS))})"
            )

        def _array(value):
            return None if value is None else np.asarray(value, dtype=float)

        return cls(
            algorithm=str(payload["algorithm"]),
            n_clients=int(payload["n_clients"]),
            config=dict(payload.get("config", {})),
            rng_state=payload.get("rng_state"),
            payload=decode_state_value(payload.get("payload", {})),
            chunk_index=int(payload.get("chunk_index", 0)),
            evaluations=int(payload.get("evaluations", 0)),
            elapsed_seconds=float(payload.get("elapsed_seconds", 0.0)),
            done=bool(payload.get("done", False)),
            values=_array(payload.get("values")),
            stderr=_array(payload.get("stderr")),
            n_samples=_array(payload.get("n_samples")),
        )


class StepResult(NamedTuple):
    """What one incremental chunk reports back to :meth:`iter_run`."""

    values: np.ndarray
    stderr: Optional[np.ndarray]
    n_samples: Optional[np.ndarray]
    done: bool


# --------------------------------------------------------------------------- #
# Snapshots
# --------------------------------------------------------------------------- #
@dataclass
class ValuationSnapshot:
    """One point on an estimator's convergence trajectory.

    Yielded by :meth:`ValuationAlgorithm.iter_run` after every incremental
    chunk.  ``stderr`` is ``None`` for estimators that do not define a
    per-client standard error (the exact schemes, IPSS's exhaustive phase 1 —
    IPSS's phase-2 chunks report a remaining-uncertainty residual instead);
    ``state`` references the live :class:`EstimatorState` (checkpoint it with
    ``state.to_dict()``) and is ``None`` for single-chunk adapters that cannot
    be resumed mid-run.
    """

    algorithm: str
    n_clients: int
    values: np.ndarray
    evaluations: int
    elapsed_seconds: float
    chunk_index: int
    done: bool
    stderr: Optional[np.ndarray] = None
    n_samples_per_client: Optional[np.ndarray] = None
    metadata: Dict[str, Any] = field(default_factory=dict)
    state: Optional[EstimatorState] = None

    def ci_halfwidth(self, level: float = 0.95) -> Optional[np.ndarray]:
        """Per-client normal-approximation CI half-widths, if stderr is known."""
        if self.stderr is None:
            return None
        return normal_quantile(level) * self.stderr

    def ranking(self) -> np.ndarray:
        """Client ids ordered from most to least valuable (stable ties)."""
        return np.argsort(-self.values, kind="stable")

    def max_ci95(self) -> Optional[float]:
        """Widest per-client 95% CI half-width, or ``None`` while undefined.

        ``None`` until *every* client's standard error is defined — a NaN
        stderr marks single-sample ignorance, and a partial maximum would
        understate the uncertainty.
        """
        ci = self.ci_halfwidth()
        if ci is None or not bool(np.all(np.isfinite(ci))):
            return None
        return float(np.max(ci))

    def result(self, stopped_by: Optional[str] = None) -> ValuationResult:
        """Materialise the snapshot as a :class:`ValuationResult`."""
        metadata = dict(self.metadata)
        if stopped_by is not None:
            metadata["stopped_early"] = True
            metadata["stopped_by"] = stopped_by
        return ValuationResult(
            values=np.asarray(self.values, dtype=float),
            algorithm=self.algorithm,
            n_clients=self.n_clients,
            utility_evaluations=int(self.evaluations),
            elapsed_seconds=float(self.elapsed_seconds),
            metadata=metadata,
            stderr=None if self.stderr is None else np.asarray(self.stderr, dtype=float),
            n_samples_per_client=(
                None
                if self.n_samples_per_client is None
                else np.asarray(self.n_samples_per_client, dtype=float)
            ),
        )

    def to_dict(self) -> dict:
        """JSON-safe form used by ``repro run --json-stream``.

        Undefined standard errors (NaN) map to ``null`` so the stream stays
        strict JSON; ``max_ci95`` is ``null`` until every client's CI is
        defined.
        """
        stderr = None
        if self.stderr is not None:
            stderr = [
                float(s) if np.isfinite(s) else None
                for s in np.asarray(self.stderr, dtype=float)
            ]
        return {
            "algorithm": self.algorithm,
            "n_clients": int(self.n_clients),
            "chunk": int(self.chunk_index),
            "evaluations": int(self.evaluations),
            "elapsed_seconds": float(self.elapsed_seconds),
            "done": bool(self.done),
            "values": np.asarray(self.values, dtype=float).tolist(),
            "stderr": stderr,
            "max_ci95": self.max_ci95(),
        }


def stratified_stderr(
    sums: np.ndarray, sumsq: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """Per-client stderr of a stratified mean-of-stratum-means estimator.

    ``sums``/``sumsq``/``counts`` have shape ``(n_clients, n_strata + 1)``
    with column ``k`` accumulating a client's contribution samples from the
    coalition-size-``k`` stratum.  The estimator averages stratum means and
    divides by ``n_clients``, so its variance is ``(1/n²) Σ_k s²_k / m_k``
    with ``s²_k`` the ddof-1 sample variance of stratum ``k``.

    Per-stratum handling:

    * no samples — the stratum contributes nothing to the estimate: zero;
    * two or more samples — empirical variance of the stratum mean;
    * exactly one sample — depends on the stratum's *population* for that
      client, which for size-``k`` coalitions containing the client is
      ``C(n−1, k−1)`` (both current callers sample per-client contributions
      from exactly that space).  A population of one (the singleton and
      grand-coalition strata) is fully enumerated by a single sample and
      carries zero sampling variance; a single sample from a larger
      population is unknowable spread and yields ``NaN`` — stderr
      *undefined*, never a false-certainty zero, so CI-based stopping rules
      cannot fire on it.
    """
    sums = np.asarray(sums, dtype=float)
    sumsq = np.asarray(sumsq, dtype=float)
    counts = np.asarray(counts, dtype=float)
    n_clients = sums.shape[0]
    n_columns = sums.shape[1]
    population = np.array(
        [math.comb(n_clients - 1, k - 1) if k >= 1 else 0 for k in range(n_columns)],
        dtype=float,
    )
    with np.errstate(invalid="ignore", divide="ignore"):
        means = np.where(counts > 0, sums / np.maximum(counts, 1), 0.0)
        variance = np.where(
            counts >= 2,
            np.maximum(sumsq - counts * means**2, 0.0) / np.maximum(counts - 1, 1),
            0.0,
        )
        per_stratum = np.where(counts >= 2, variance / np.maximum(counts, 1), 0.0)
        per_stratum = np.where(
            (counts == 1) & (population[None, :] > 1), np.nan, per_stratum
        )
    return np.sqrt(per_stratum.sum(axis=1)) / n_clients


# --------------------------------------------------------------------------- #
# Stopping rules
# --------------------------------------------------------------------------- #
class StoppingRule(abc.ABC):
    """Early-stop predicate over the snapshot stream of one estimation run.

    Rules may be stateful (rank stability tracks a history); :meth:`reset` is
    called once before each run so a rule instance can be reused across the
    cells of a campaign.  After :meth:`should_stop` returns ``True``,
    :attr:`fired` describes which condition triggered.
    """

    def __init__(self) -> None:
        self.fired: Optional[str] = None

    def reset(self) -> None:
        self.fired = None

    @abc.abstractmethod
    def should_stop(self, snapshot: ValuationSnapshot) -> bool:
        """Whether the run should stop after this snapshot."""

    @abc.abstractmethod
    def describe(self) -> str:
        """Stable, parseable-back description (the ``--stop-on`` syntax)."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.describe()!r})"


class BudgetRule(StoppingRule):
    """Stop once at least ``max_evaluations`` oracle evaluations were spent."""

    def __init__(self, max_evaluations: int) -> None:
        super().__init__()
        if max_evaluations < 1:
            raise ValueError(f"max_evaluations must be >= 1, got {max_evaluations}")
        self.max_evaluations = int(max_evaluations)

    def should_stop(self, snapshot: ValuationSnapshot) -> bool:
        if snapshot.evaluations >= self.max_evaluations:
            self.fired = self.describe()
            return True
        return False

    def describe(self) -> str:
        return f"budget:{self.max_evaluations}"


class WallClockRule(StoppingRule):
    """Stop once the estimation has run for at least ``max_seconds``."""

    def __init__(self, max_seconds: float) -> None:
        super().__init__()
        if max_seconds <= 0:
            raise ValueError(f"max_seconds must be positive, got {max_seconds}")
        self.max_seconds = float(max_seconds)

    def should_stop(self, snapshot: ValuationSnapshot) -> bool:
        if snapshot.elapsed_seconds >= self.max_seconds:
            self.fired = self.describe()
            return True
        return False

    def describe(self) -> str:
        return f"wallclock:{self.max_seconds:g}"


class ConvergenceRule(StoppingRule):
    """Stop when the estimate has stabilised.

    Two convergence metrics are supported:

    ``metric="ci"``
        every client's CI half-width (at ``ci_level``) is at most
        ``threshold`` for ``patience`` consecutive snapshots.  Snapshots
        without standard errors never satisfy this metric.
    ``metric="rank"``
        the client ranking (restricted to the top ``top_k`` clients when
        given) is unchanged across ``patience`` consecutive snapshots —
        i.e. ``patience`` additional chunks bought no rank movement.
    """

    METRICS = ("ci", "rank")

    def __init__(
        self,
        metric: str = "ci",
        threshold: Optional[float] = None,
        top_k: Optional[int] = None,
        patience: int = 2,
        ci_level: float = 0.95,
    ) -> None:
        super().__init__()
        if metric not in self.METRICS:
            raise ValueError(f"metric must be one of {self.METRICS}, got {metric!r}")
        if metric == "ci":
            if threshold is None or threshold <= 0:
                raise ValueError("metric='ci' needs a positive threshold")
        if patience < 1:
            raise ValueError(f"patience must be >= 1, got {patience}")
        if top_k is not None and top_k < 1:
            raise ValueError(f"top_k must be >= 1, got {top_k}")
        self.metric = metric
        self.threshold = None if threshold is None else float(threshold)
        self.top_k = None if top_k is None else int(top_k)
        self.patience = int(patience)
        self.ci_level = float(ci_level)
        self._streak = 0
        self._last_ranking: Optional[tuple] = None

    def reset(self) -> None:
        super().reset()
        self._streak = 0
        self._last_ranking = None

    def _rank_key(self, snapshot: ValuationSnapshot) -> tuple:
        ranking = snapshot.ranking()
        if self.top_k is not None:
            ranking = ranking[: self.top_k]
        return tuple(int(c) for c in ranking)

    def should_stop(self, snapshot: ValuationSnapshot) -> bool:
        if self.metric == "ci":
            ci = snapshot.ci_halfwidth(self.ci_level)
            samples = snapshot.n_samples_per_client
            ok = (
                ci is not None
                # NaN marks an undefined stderr (e.g. a single-sample stratum
                # inside the estimate) — ignorance, not certainty.
                and bool(np.all(np.isfinite(ci)))
                and bool(np.all(ci <= self.threshold))
                and (samples is None or bool(np.all(samples >= 2)))
            )
            self._streak = self._streak + 1 if ok else 0
        else:
            key = self._rank_key(snapshot)
            if self._last_ranking is not None and key == self._last_ranking:
                self._streak += 1
            else:
                self._streak = 0
            self._last_ranking = key
        if self._streak >= self.patience:
            self.fired = self.describe()
            return True
        return False

    def describe(self) -> str:
        if self.metric == "ci":
            return f"ci:{self.threshold:g}@{self.patience}"
        if self.top_k is not None:
            return f"rank:{self.patience}@top{self.top_k}"
        return f"rank:{self.patience}"


class _CompositeRule(StoppingRule):
    def __init__(self, rules: Sequence[StoppingRule]) -> None:
        super().__init__()
        if not rules:
            raise ValueError(f"{type(self).__name__} needs at least one rule")
        self.rules: List[StoppingRule] = list(rules)

    def reset(self) -> None:
        super().reset()
        for rule in self.rules:
            rule.reset()


class AnyOf(_CompositeRule):
    """Stop as soon as any member rule fires."""

    def should_stop(self, snapshot: ValuationSnapshot) -> bool:
        stop = False
        for rule in self.rules:
            # Evaluate every member: stateful rules must see every snapshot.
            if rule.should_stop(snapshot):
                stop = True
        if stop:
            self.fired = " | ".join(r.fired for r in self.rules if r.fired is not None)
        return stop

    def describe(self) -> str:
        return ",".join(rule.describe() for rule in self.rules)


class AllOf(_CompositeRule):
    """Stop only when every member rule agrees (each on the same snapshot)."""

    def should_stop(self, snapshot: ValuationSnapshot) -> bool:
        votes = [rule.should_stop(snapshot) for rule in self.rules]
        if all(votes):
            self.fired = self.describe()
            return True
        return False

    def describe(self) -> str:
        return " & ".join(rule.describe() for rule in self.rules)


def parse_stopping_rule(spec: str) -> StoppingRule:
    """Parse the ``--stop-on`` mini-language into a stopping rule.

    Comma-separated terms combine as :class:`AnyOf`.  Terms:

    * ``budget:<N>`` — stop at ``N`` oracle evaluations;
    * ``wallclock:<seconds>`` — stop after that much wall-clock time;
    * ``ci:<width>[@<patience>]`` — CI convergence (default patience 2);
    * ``rank:<patience>[@top<K>]`` — rank stability over ``patience`` chunks,
      optionally restricted to the top ``K`` clients.

    Example: ``"budget:256,rank:3@top5"``.
    """
    if not spec or not spec.strip():
        raise ValueError("empty stopping-rule specification")
    rules: List[StoppingRule] = []
    for term in (part.strip() for part in spec.split(",")):
        if not term:
            continue
        kind, _, argument = term.partition(":")
        if not argument:
            raise ValueError(
                f"malformed stopping-rule term {term!r}; expected kind:value"
            )
        try:
            if kind == "budget":
                rules.append(BudgetRule(int(argument)))
            elif kind == "wallclock":
                rules.append(WallClockRule(float(argument)))
            elif kind == "ci":
                width, _, patience = argument.partition("@")
                rules.append(
                    ConvergenceRule(
                        metric="ci",
                        threshold=float(width),
                        patience=int(patience) if patience else 2,
                    )
                )
            elif kind == "rank":
                patience, _, top = argument.partition("@")
                top_k = None
                if top:
                    if not top.startswith("top"):
                        raise ValueError(f"expected 'top<K>' after '@', got {top!r}")
                    top_k = int(top[3:])
                rules.append(
                    ConvergenceRule(metric="rank", patience=int(patience), top_k=top_k)
                )
            else:
                raise ValueError(
                    f"unknown stopping-rule kind {kind!r}; "
                    "known kinds: budget, wallclock, ci, rank"
                )
        except ValueError as error:
            raise ValueError(f"bad stopping-rule term {term!r}: {error}") from None
    if not rules:
        raise ValueError(f"no stopping-rule terms in {spec!r}")
    if len(rules) == 1:
        return rules[0]
    return AnyOf(rules)
