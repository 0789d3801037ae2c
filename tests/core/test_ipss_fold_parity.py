"""IPSS phase 2 folds its presorted pairs bitwise like the per-pair loop.

``IPSS`` sorts the phase-2 sample's (base, client) pairs once per phase and
folds each snapshot's evaluated prefix with ``np.add.at``.  ``PerPairIPSS``
below is the phase-2 step as it was before: every chunk rebuilds the pairs of
the whole evaluated prefix, sorts them in Python and adds them one by one,
and the residual is a per-client loop.  Every snapshot — values, stderr,
``n_samples`` and ``done`` — must agree bit for bit, including from a resume
in the middle of phase 2.
"""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import IPSS
from repro.core.anytime import EstimatorState, StepResult
from repro.core.exact import mc_accumulate_stratum
from repro.core.plans import DEFAULT_PLAN_BATCH
from repro.fl import TabularUtility
from repro.utils.combinatorics import coalitions_of_size, marginal_coefficient


class PerPairIPSS(IPSS):
    """IPSS with the per-pair phase-2 fold and the per-client residual."""

    def _incremental_step(self, utility, n_clients, rng, payload) -> StepResult:
        k_star = int(payload["k_star"])
        self._last_k_star = k_star
        values, counts = payload["values"], payload["counts"]
        size = int(payload["next_size"])

        if size <= k_star:
            payload["utilities"].update(
                self._batch_utilities(
                    utility,
                    coalitions_of_size(n_clients, size),
                    batch_size=DEFAULT_PLAN_BATCH,
                )
            )
            if 1 <= size:
                mc_accumulate_stratum(
                    payload["utilities"], n_clients, size - 1, values, counts
                )
            payload["next_size"] = size + 1
            done = size >= k_star and not self._has_partial_phase(n_clients, k_star)
            self._last_partial_count = int(payload["partial_count"])
            return StepResult(
                values=values.copy(), stderr=None, n_samples=counts.copy(), done=done
            )

        partial, planned = self._phase_two_sample(n_clients, k_star, rng, payload)
        self._last_partial_count = len(partial)
        cursor = int(payload["partial_evaluated"])
        if self.partial_chunk_size is None:
            chunk = partial[cursor:]
        else:
            chunk = partial[cursor : cursor + self.partial_chunk_size]
        if chunk:
            payload["utilities"].update(self._batch_utilities(utility, chunk))
        cursor += len(chunk)
        payload["partial_evaluated"] = cursor
        evaluated_partial = partial[:cursor]

        values = values.copy()
        counts = counts.copy()
        weight = (
            marginal_coefficient(n_clients, k_star)
            if k_star <= n_clients - 1
            else 0.0
        )
        contrib_sum = np.zeros(n_clients)
        contrib_sumsq = np.zeros(n_clients)
        contrib_count = np.zeros(n_clients)
        if evaluated_partial and k_star <= n_clients - 1:
            pairs = [
                (tuple(sorted(with_client - {client})), client, with_client)
                for with_client in evaluated_partial
                for client in with_client
            ]
            pairs.sort(key=lambda pair: (pair[0], pair[1]))
            for base_members, client, with_client in pairs:
                contribution = (
                    payload["utilities"][with_client]
                    - payload["utilities"][frozenset(base_members)]
                )
                values[client] += weight * contribution
                counts[client] += 1
                contrib_sum[client] += contribution
                contrib_sumsq[client] += contribution * contribution
                contrib_count[client] += 1
        return StepResult(
            values=values,
            stderr=self._remaining_uncertainty(
                n_clients, planned, weight, contrib_sum, contrib_sumsq, contrib_count
            ),
            n_samples=counts,
            done=cursor >= len(partial),
        )

    @staticmethod
    def _remaining_uncertainty(
        n_clients, planned, weight, contrib_sum, contrib_sumsq, contrib_count
    ):
        remaining = planned - contrib_count
        stderr = np.zeros(n_clients)
        for client in range(n_clients):
            if remaining[client] <= 0:
                stderr[client] = 0.0
            elif contrib_count[client] >= 2:
                mean = contrib_sum[client] / contrib_count[client]
                variance = max(
                    0.0,
                    (contrib_sumsq[client] - contrib_count[client] * mean * mean)
                    / (contrib_count[client] - 1.0),
                )
                stderr[client] = weight * float(
                    np.sqrt(remaining[client] * variance)
                )
            else:
                stderr[client] = np.nan
        return stderr


def fingerprint(snapshot):
    """Bitwise identity of a snapshot (NaN-safe, -0.0-sensitive)."""
    return (
        snapshot.values.tobytes(),
        None if snapshot.stderr is None else snapshot.stderr.tobytes(),
        snapshot.n_samples_per_client.tobytes(),
        snapshot.done,
    )


def random_game(n, seed, nan_coalitions, flat_client):
    """A tabular game; ``flat_client`` adds exactly 0.25 to every coalition it
    joins (identical marginals, zero variance); ``nan_coalitions`` of the
    coalitions are NaN."""
    rng = np.random.default_rng(seed)
    table = {}
    for size in range(n + 1):
        for coalition in coalitions_of_size(n, size):
            base = coalition - {flat_client}
            # Dyadic utilities: adding and removing 0.25 is exact.
            noisy = np.sqrt(len(base)) + rng.normal(0.0, 0.2)
            table[coalition] = float(np.round(noisy * 1024.0) / 1024.0)
    for coalition in list(table):
        if flat_client in coalition:
            table[coalition] = table[coalition - {flat_client}] + 0.25
    keys = list(table)
    for index in rng.choice(len(keys), size=nan_coalitions, replace=False):
        table[keys[index]] = float("nan")
    return TabularUtility(n, table)


games = st.integers(min_value=2, max_value=7).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.integers(min_value=1, max_value=2**n),  # γ
        st.integers(min_value=0, max_value=2**32 - 1),  # seed
        st.integers(min_value=0, max_value=2),  # NaN coalitions
        st.integers(min_value=0, max_value=n - 1),  # zero-variance client
    )
)


@settings(max_examples=150, deadline=None)
@given(game=games, chunk=st.sampled_from([None, 1, 8]))
def test_phase_two_snapshots_match_per_pair_loop(game, chunk):
    n, gamma, seed, nans, flat = game
    utility = random_game(n, seed, nans, flat)
    reference = [
        fingerprint(snapshot)
        for snapshot in PerPairIPSS(
            total_rounds=gamma, partial_chunk_size=chunk, seed=seed
        ).iter_run(utility, n)
    ]
    algorithm = IPSS(total_rounds=gamma, partial_chunk_size=chunk, seed=seed)
    fingerprints = []
    checkpoints = {}
    for index, snapshot in enumerate(algorithm.iter_run(utility, n)):
        fingerprints.append(fingerprint(snapshot))
        if snapshot.stderr is not None and not snapshot.done:
            checkpoints[index] = json.dumps(snapshot.state.to_dict())
    assert fingerprints == reference

    # Interrupt at the first, a middle and the last unfinished phase-2 chunk
    # and resume from the JSON checkpoint: in a fresh instance (the fold is
    # rebuilt and its evaluated prefix refilled) and in the instance that ran
    # before (its in-memory sample is reused, its fold is not).
    chunks = sorted(checkpoints)
    for index in sorted({*chunks[:1], *chunks[len(chunks) // 2 :][:1], *chunks[-1:]}):
        checkpoint = checkpoints[index]
        for resumed in (
            IPSS(total_rounds=gamma, partial_chunk_size=chunk, seed=seed),
            algorithm,
        ):
            state = EstimatorState.from_dict(json.loads(checkpoint))
            tail = [
                fingerprint(snapshot)
                for snapshot in resumed.iter_run(utility, n, state=state)
            ]
            assert tail == reference[index + 1 :]


def test_games_reach_the_nan_and_zero_variance_paths():
    # n=5, γ=12: k*=1 and a 6-coalition phase-2 sample, in chunks of one.
    utility = random_game(5, seed=7, nan_coalitions=0, flat_client=2)
    algorithm = IPSS(total_rounds=12, partial_chunk_size=1, seed=7)
    snapshots = list(algorithm.iter_run(utility, 5))
    stderr = [s.stderr for s in snapshots if s.stderr is not None]
    assert any(np.isnan(residual).any() for residual in stderr)
    # The flat client's marginals are all 0.25: once two are in, its
    # residual is exactly +0.0 although appearances remain.
    flat = [residual[2] for residual in stderr[:-1] if not np.isnan(residual[2])]
    assert flat and all(value == 0.0 and not np.signbit(value) for value in flat)
