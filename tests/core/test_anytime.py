"""Anytime-valuation protocol: parity, checkpoints, snapshots, stopping rules.

The load-bearing contract of the API redesign: for every registered
algorithm, the snapshot-stream ``iter_run`` consumed to exhaustion — with or
without a JSON checkpoint round-trip in the middle — produces values and
evaluation counts bitwise-identical to the monolithic pre-redesign ``run()``
(pinned by the committed golden file).
"""

import json
import os

import numpy as np
import pytest

from helpers import monotone_game
from repro.core import (
    AllOf,
    AnyOf,
    BudgetRule,
    CCShapley,
    CCShapleySampling,
    ConvergenceRule,
    EstimatorState,
    ExtendedGTB,
    ExtendedTMC,
    IPSS,
    KGreedy,
    MCShapley,
    PermShapley,
    StratifiedSampling,
    WallClockRule,
    parse_stopping_rule,
)
from repro.core.anytime import (
    ValuationSnapshot,
    capture_rng_state,
    decode_state_value,
    encode_state_value,
    normal_quantile,
    restore_rng,
)

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "..", "data", "golden_run_values.json")

with open(GOLDEN_PATH, "r", encoding="utf-8") as _handle:
    GOLDEN = json.load(_handle)

N = GOLDEN["n_clients"]
GAMMA = GOLDEN["gamma"]
GAME_SEED = GOLDEN["game_seed"]


def golden_algorithms():
    """The exact line-up the golden file was generated with, in order."""
    from repro.core import BanzhafSampling, LeaveOneOut, RandomValuation

    return [
        MCShapley(seed=0),
        CCShapley(seed=0),
        PermShapley(seed=0),
        StratifiedSampling(total_rounds=GAMMA, scheme="mc", seed=0),
        StratifiedSampling(total_rounds=GAMMA, scheme="cc", seed=0),
        StratifiedSampling(total_rounds=GAMMA, scheme="mc", pair_on_demand=True, seed=0),
        KGreedy(max_size=2, seed=0),
        IPSS(total_rounds=GAMMA, seed=0),
        IPSS(total_rounds=GAMMA, include_partial_stratum=False, seed=0),
        ExtendedTMC(total_rounds=GAMMA, seed=0),
        ExtendedGTB(total_rounds=GAMMA, seed=0),
        CCShapleySampling(total_rounds=GAMMA, seed=0),
        CCShapleySampling(total_rounds=GAMMA, stratified=False, seed=0),
        BanzhafSampling(total_rounds=GAMMA, seed=0),
        LeaveOneOut(seed=0),
        RandomValuation(seed=0),
    ]


INCREMENTAL_FACTORIES = [
    pytest.param(lambda: MCShapley(seed=3), id="mc-shapley"),
    pytest.param(lambda: CCShapley(seed=3), id="cc-shapley-exact"),
    pytest.param(lambda: PermShapley(seed=3), id="perm-shapley"),
    pytest.param(
        lambda: StratifiedSampling(total_rounds=GAMMA, scheme="mc", seed=3),
        id="stratified-mc",
    ),
    pytest.param(
        lambda: StratifiedSampling(total_rounds=GAMMA, scheme="cc", seed=3),
        id="stratified-cc",
    ),
    pytest.param(
        lambda: StratifiedSampling(
            total_rounds=GAMMA, scheme="mc", pair_on_demand=True, seed=3
        ),
        id="stratified-pairs",
    ),
    pytest.param(lambda: KGreedy(max_size=3, seed=3), id="k-greedy"),
    pytest.param(lambda: IPSS(total_rounds=GAMMA, seed=3), id="ipss"),
    pytest.param(lambda: ExtendedTMC(total_rounds=GAMMA, seed=3), id="extended-tmc"),
    pytest.param(
        lambda: ExtendedGTB(total_rounds=GAMMA, chunk_rounds=3, seed=3), id="extended-gtb"
    ),
    pytest.param(
        lambda: CCShapleySampling(total_rounds=GAMMA, chunk_rounds=2, seed=3),
        id="cc-sampling",
    ),
]


class TestGoldenParity:
    """run() must be bitwise-identical to the pre-redesign implementation."""

    def test_values_and_evaluations_match_golden_file(self):
        for entry, algorithm in zip(GOLDEN["entries"], golden_algorithms()):
            utility = monotone_game(N, seed=GAME_SEED)
            result = algorithm.run(utility, N)
            assert result.algorithm == entry["name"]
            assert result.values.tolist() == entry["values"], entry["name"]
            assert result.utility_evaluations == entry["utility_evaluations"], entry["name"]


class TestIterRun:
    @pytest.mark.parametrize("factory", INCREMENTAL_FACTORIES)
    def test_exhausted_iter_run_equals_run(self, factory):
        reference = factory().run(monotone_game(N, seed=5), N)
        snapshots = list(factory().iter_run(monotone_game(N, seed=5), N))
        final = snapshots[-1]
        assert final.done
        assert final.values.tolist() == reference.values.tolist()
        assert final.evaluations == reference.utility_evaluations
        assert final.result().metadata == reference.metadata

    @pytest.mark.parametrize("factory", INCREMENTAL_FACTORIES)
    def test_snapshot_stream_is_monotone(self, factory):
        snapshots = list(factory().iter_run(monotone_game(N, seed=5), N))
        assert len(snapshots) >= 2, "incremental algorithms must chunk"
        chunks = [s.chunk_index for s in snapshots]
        assert chunks == list(range(1, len(snapshots) + 1))
        evaluations = [s.evaluations for s in snapshots]
        assert evaluations == sorted(evaluations)
        assert all(not s.done for s in snapshots[:-1])
        assert snapshots[-1].done
        for snapshot in snapshots:
            assert snapshot.values.shape == (N,)

    def test_incremental_flag(self):
        assert MCShapley.incremental
        assert IPSS.incremental
        from repro.core import LeaveOneOut

        assert not LeaveOneOut.incremental

    def test_single_chunk_adapter_for_unmigrated_algorithms(self):
        from repro.core import LeaveOneOut

        snapshots = list(LeaveOneOut(seed=0).iter_run(monotone_game(N, seed=5), N))
        assert len(snapshots) == 1
        assert snapshots[0].done
        assert snapshots[0].evaluations == N + 1

    def test_samplers_report_stderr(self):
        for factory in (
            lambda: StratifiedSampling(total_rounds=GAMMA, seed=3),
            lambda: ExtendedTMC(total_rounds=GAMMA, seed=3),
            lambda: CCShapleySampling(total_rounds=GAMMA, seed=3),
        ):
            final = list(factory().iter_run(monotone_game(N, seed=5), N))[-1]
            assert final.stderr is not None
            assert final.stderr.shape == (N,)
            # Defined stderrs are non-negative; single-sample contributions
            # are NaN (undefined), never a false-certainty zero.
            finite = np.isfinite(final.stderr)
            assert np.all(final.stderr[finite] >= 0)
            assert final.n_samples_per_client is not None
            ci = final.ci_halfwidth()
            assert np.allclose(
                ci[finite], 1.959963984540054 * final.stderr[finite]
            )

    def test_ci_rule_can_fire_once_strata_are_covered(self):
        # Exhaustive budget on n=4: every stratum is fully sampled, so every
        # client's stderr is defined and a generous CI rule fires — the
        # NaN-for-ignorance policy must not make CI stopping unreachable.
        final = list(
            StratifiedSampling(total_rounds=15, seed=0).iter_run(
                monotone_game(4, seed=1), 4
            )
        )[-1]
        assert np.all(np.isfinite(final.stderr))
        stopped = StratifiedSampling(total_rounds=15, seed=0).run(
            monotone_game(4, seed=1), 4,
            stopping_rule=ConvergenceRule(metric="ci", threshold=5.0, patience=1),
        )
        assert stopped.metadata.get("stopped_by") == "ci:5@1"
        cc_stopped = CCShapleySampling(total_rounds=64, seed=0).run(
            monotone_game(4, seed=1), 4,
            stopping_rule=ConvergenceRule(metric="ci", threshold=5.0, patience=1),
        )
        assert cc_stopped.metadata.get("stopped_by") == "ci:5@1"
        assert cc_stopped.utility_evaluations < 64

    def test_fully_enumerated_stratum_has_zero_variance_not_nan(self):
        from repro.core.anytime import stratified_stderr

        n = 4
        sums = np.zeros((n, n + 1))
        sumsq = np.zeros((n, n + 1))
        counts = np.zeros((n, n + 1))
        # One sample in the singleton stratum (population C(3,0)=1): defined.
        counts[:, 1] = 1
        assert np.all(np.isfinite(stratified_stderr(sums, sumsq, counts)))
        # One sample in the size-2 stratum (population C(3,1)=3): undefined.
        counts[:, 2] = 1
        assert np.all(np.isnan(stratified_stderr(sums, sumsq, counts)))

    def test_single_sample_strata_report_nan_stderr(self):
        # γ=24 over n=6 leaves several strata with exactly one sample: those
        # clients' stderrs must be NaN so CI rules can't stop on them.
        final = list(
            StratifiedSampling(total_rounds=GAMMA, seed=3).iter_run(
                monotone_game(N, seed=5), N
            )
        )[-1]
        assert np.any(~np.isfinite(final.stderr))
        # And the JSON stream maps them to null, keeping strict JSON.
        payload = final.to_dict()
        assert payload["max_ci95"] is None
        assert any(entry is None for entry in payload["stderr"])
        json.dumps(payload)

    def test_result_carries_stderr_fields(self):
        result = ExtendedTMC(total_rounds=GAMMA, seed=3).run(monotone_game(N, seed=5), N)
        assert result.stderr is not None
        assert result.n_samples_per_client is not None
        assert result.ci_halfwidth().shape == (N,)


class TestCheckpointResume:
    @pytest.mark.parametrize("factory", INCREMENTAL_FACTORIES)
    @pytest.mark.parametrize("stop_at", [1, 2, 4])
    def test_json_roundtrip_resume_is_bitwise_identical(self, factory, stop_at):
        reference = factory().run(monotone_game(N, seed=9), N)

        algorithm = factory()
        iterator = algorithm.iter_run(monotone_game(N, seed=9), N)
        snapshot = None
        for index, snapshot in enumerate(iterator, start=1):
            if index == stop_at or snapshot.done:
                break
        iterator.close()

        if snapshot.done:
            resumed = snapshot.result()
        else:
            blob = json.dumps(snapshot.state.to_dict())
            restored = EstimatorState.from_dict(json.loads(blob))
            fresh = factory()
            last = None
            for last in fresh.iter_run(monotone_game(N, seed=9), restored.n_clients, state=restored):
                pass
            resumed = last.result()
        assert resumed.values.tolist() == reference.values.tolist()

    def test_resume_accumulates_evaluations(self):
        algorithm = IPSS(total_rounds=GAMMA, seed=1)
        iterator = algorithm.iter_run(monotone_game(N, seed=2), N)
        first = next(iterator)
        iterator.close()
        assert first.evaluations > 0
        restored = EstimatorState.from_dict(json.loads(json.dumps(first.state.to_dict())))
        final = list(IPSS(total_rounds=GAMMA, seed=1).iter_run(
            monotone_game(N, seed=2), N, state=restored
        ))[-1]
        reference = IPSS(total_rounds=GAMMA, seed=1).run(monotone_game(N, seed=2), N)
        assert final.evaluations == reference.utility_evaluations

    def test_state_rejects_wrong_algorithm(self):
        snapshot = next(iter(IPSS(total_rounds=GAMMA, seed=1).iter_run(
            monotone_game(N, seed=2), N
        )))
        with pytest.raises(ValueError, match="does not match"):
            list(KGreedy(max_size=2, seed=1).iter_run(
                monotone_game(N, seed=2), N, state=snapshot.state
            ))

    def test_state_rejects_changed_config(self):
        snapshot = next(iter(IPSS(total_rounds=GAMMA, seed=1).iter_run(
            monotone_game(N, seed=2), N
        )))
        with pytest.raises(ValueError, match="does not match"):
            list(IPSS(total_rounds=GAMMA + 1, seed=1).iter_run(
                monotone_game(N, seed=2), N, state=snapshot.state
            ))

    def test_state_rejects_wrong_n_clients(self):
        snapshot = next(iter(ExtendedTMC(total_rounds=GAMMA, seed=1).iter_run(
            monotone_game(N, seed=2), N
        )))
        with pytest.raises(ValueError, match="does not match"):
            list(ExtendedTMC(total_rounds=GAMMA, seed=1).iter_run(
                monotone_game(N + 1, seed=2), N + 1, state=snapshot.state
            ))

    def test_done_state_yields_terminal_snapshot(self):
        final = list(IPSS(total_rounds=GAMMA, seed=1).iter_run(
            monotone_game(N, seed=2), N
        ))[-1]
        replayed = list(IPSS(total_rounds=GAMMA, seed=1).iter_run(
            monotone_game(N, seed=2), N, state=final.state
        ))
        assert len(replayed) == 1
        assert replayed[0].done
        assert replayed[0].values.tolist() == final.values.tolist()

    def test_gradient_based_rejects_state(self):
        from repro.core import ORBaseline

        with pytest.raises(ValueError, match="single-chunk"):
            list(ORBaseline(seed=0).iter_run(
                monotone_game(N, seed=2), N,
                state=EstimatorState(algorithm="OR", n_clients=N),
            ))


class TestStateSerialisation:
    def test_rng_state_roundtrip_continues_stream(self):
        rng = np.random.default_rng(123)
        rng.standard_normal(10)
        captured = json.loads(json.dumps(capture_rng_state(rng)))
        clone = restore_rng(captured)
        assert clone.standard_normal(5).tolist() == rng.standard_normal(5).tolist()

    def test_payload_codec_roundtrip(self):
        payload = {
            "array": np.arange(6, dtype=float).reshape(2, 3),
            "int_array": np.array([1, 2, 3]),
            "coalition": frozenset({0, 3}),
            "table": {frozenset(): 0.1, frozenset({1, 2}): 0.25},
            "per_stratum": {1: [frozenset({0})], 2: []},
            "rows": [np.zeros(3), np.ones(3)],
            "scalars": {"f": 0.1 + 0.2, "i": 7, "b": True, "none": None, "s": "x"},
        }
        decoded = decode_state_value(json.loads(json.dumps(encode_state_value(payload))))
        assert decoded["array"].tolist() == payload["array"].tolist()
        assert decoded["array"].dtype == payload["array"].dtype
        assert decoded["int_array"].dtype == payload["int_array"].dtype
        assert decoded["coalition"] == payload["coalition"]
        assert decoded["table"] == payload["table"]
        assert list(decoded["table"]) == list(payload["table"])  # order preserved
        assert decoded["per_stratum"] == payload["per_stratum"]
        assert decoded["scalars"] == payload["scalars"]

    def test_state_format_version_is_checked(self):
        state = EstimatorState(algorithm="x", n_clients=2).to_dict()
        state["state_format"] = 999
        with pytest.raises(ValueError, match="format"):
            EstimatorState.from_dict(state)


def _snapshot(values, evaluations=10, elapsed=1.0, stderr=None, n_samples=None, done=False):
    return ValuationSnapshot(
        algorithm="test",
        n_clients=len(values),
        values=np.asarray(values, dtype=float),
        evaluations=evaluations,
        elapsed_seconds=elapsed,
        chunk_index=1,
        done=done,
        stderr=None if stderr is None else np.asarray(stderr, dtype=float),
        n_samples_per_client=(
            None if n_samples is None else np.asarray(n_samples, dtype=float)
        ),
    )


class TestStoppingRules:
    def test_normal_quantile_keeps_its_table_and_computes_the_rest(self):
        # The pinned 95% value, not NormalDist's 1.9599639845400536: CI widths
        # and ci: stop points depend on the last bit.
        assert normal_quantile(0.95) == 1.959963984540054
        assert normal_quantile(0.8) == pytest.approx(1.2815515655446004, abs=1e-15)
        with pytest.raises(ValueError, match="confidence level"):
            normal_quantile(1.0)

    def test_budget_rule(self):
        rule = BudgetRule(16)
        assert not rule.should_stop(_snapshot([1, 2], evaluations=15))
        assert rule.should_stop(_snapshot([1, 2], evaluations=16))
        assert rule.fired == "budget:16"

    def test_wallclock_rule(self):
        rule = WallClockRule(2.0)
        assert not rule.should_stop(_snapshot([1, 2], elapsed=1.0))
        assert rule.should_stop(_snapshot([1, 2], elapsed=2.5))

    def test_ci_rule_needs_stderr_and_samples(self):
        rule = ConvergenceRule(metric="ci", threshold=0.1, patience=1)
        assert not rule.should_stop(_snapshot([1, 2]))  # no stderr -> never
        wide = _snapshot([1, 2], stderr=[1.0, 1.0], n_samples=[5, 5])
        assert not rule.should_stop(wide)
        narrow = _snapshot([1, 2], stderr=[0.01, 0.01], n_samples=[5, 5])
        assert rule.should_stop(narrow)
        rule.reset()
        starved = _snapshot([1, 2], stderr=[0.0, 0.0], n_samples=[1, 1])
        assert not rule.should_stop(starved)  # one sample is not certainty
        rule.reset()
        # NaN marks an undefined stderr (e.g. a single-sample stratum hiding
        # inside a many-sample client) — must block convergence too.
        undefined = _snapshot(
            [1, 2], stderr=[0.01, float("nan")], n_samples=[5, 5]
        )
        assert not rule.should_stop(undefined)

    def test_ci_rule_patience(self):
        rule = ConvergenceRule(metric="ci", threshold=0.1, patience=2)
        narrow = _snapshot([1, 2], stderr=[0.01, 0.01], n_samples=[5, 5])
        assert not rule.should_stop(narrow)
        assert rule.should_stop(narrow)

    def test_rank_rule(self):
        rule = ConvergenceRule(metric="rank", patience=2)
        assert not rule.should_stop(_snapshot([1.0, 2.0, 3.0]))
        assert not rule.should_stop(_snapshot([1.1, 2.1, 3.1]))  # streak 1
        assert rule.should_stop(_snapshot([1.2, 2.2, 3.2]))  # streak 2

    def test_rank_rule_resets_on_change(self):
        rule = ConvergenceRule(metric="rank", patience=2)
        rule.should_stop(_snapshot([1.0, 2.0]))
        rule.should_stop(_snapshot([1.0, 2.0]))  # streak 1
        assert not rule.should_stop(_snapshot([2.0, 1.0]))  # order flipped
        assert not rule.should_stop(_snapshot([2.0, 1.0]))
        assert rule.should_stop(_snapshot([2.0, 1.0]))

    def test_rank_rule_top_k_ignores_tail(self):
        rule = ConvergenceRule(metric="rank", patience=1, top_k=1)
        rule.should_stop(_snapshot([5.0, 1.0, 2.0]))
        assert rule.should_stop(_snapshot([5.0, 2.0, 1.0]))  # tail swap invisible

    def test_any_of_and_all_of(self):
        snapshot = _snapshot([1, 2], evaluations=20, elapsed=0.1)
        any_rule = AnyOf([BudgetRule(16), WallClockRule(100)])
        assert any_rule.should_stop(snapshot)
        assert "budget:16" in any_rule.fired
        all_rule = AllOf([BudgetRule(16), WallClockRule(100)])
        assert not all_rule.should_stop(snapshot)
        late = _snapshot([1, 2], evaluations=20, elapsed=200)
        assert all_rule.should_stop(late)

    def test_reset_clears_streaks(self):
        rule = ConvergenceRule(metric="rank", patience=1)
        rule.should_stop(_snapshot([1.0, 2.0]))
        rule.reset()
        assert not rule.should_stop(_snapshot([1.0, 2.0]))

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            BudgetRule(0)
        with pytest.raises(ValueError):
            WallClockRule(0)
        with pytest.raises(ValueError):
            ConvergenceRule(metric="ci")  # threshold required
        with pytest.raises(ValueError):
            ConvergenceRule(metric="nope")
        with pytest.raises(ValueError):
            AnyOf([])


class TestParseStoppingRule:
    def test_single_terms(self):
        assert isinstance(parse_stopping_rule("budget:64"), BudgetRule)
        assert isinstance(parse_stopping_rule("wallclock:1.5"), WallClockRule)
        ci = parse_stopping_rule("ci:0.05")
        assert isinstance(ci, ConvergenceRule) and ci.metric == "ci"
        assert ci.threshold == 0.05 and ci.patience == 2
        ci3 = parse_stopping_rule("ci:0.05@3")
        assert ci3.patience == 3
        rank = parse_stopping_rule("rank:4")
        assert rank.metric == "rank" and rank.patience == 4 and rank.top_k is None
        ranked = parse_stopping_rule("rank:2@top5")
        assert ranked.top_k == 5

    def test_comma_means_any_of(self):
        rule = parse_stopping_rule("budget:64,rank:2")
        assert isinstance(rule, AnyOf)
        assert len(rule.rules) == 2

    def test_describe_roundtrips(self):
        for spec in ("budget:64", "ci:0.05@3", "rank:2@top5", "rank:4", "wallclock:30"):
            rule = parse_stopping_rule(spec)
            again = parse_stopping_rule(rule.describe())
            assert again.describe() == rule.describe()
        # The composite and every constructible ConvergenceRule round-trip too
        # (describe() is recorded in metadata["stopped_by"] and shown to users).
        composite = parse_stopping_rule("budget:8,rank:2")
        assert parse_stopping_rule(composite.describe()).describe() == composite.describe()
        bare_rank = ConvergenceRule(metric="rank")
        assert parse_stopping_rule(bare_rank.describe()).describe() == bare_rank.describe()

    @pytest.mark.parametrize(
        "bad", ["", "budget", "budget:x", "nope:3", "rank:2@five", "ci:-1"]
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_stopping_rule(bad)


class TestEarlyStopRun:
    def test_budget_rule_saves_evaluations(self):
        full = IPSS(total_rounds=GAMMA, seed=0).run(monotone_game(N, seed=7), N)
        stopped = IPSS(total_rounds=GAMMA, seed=0).run(
            monotone_game(N, seed=7), N, stopping_rule=BudgetRule(8)
        )
        assert stopped.utility_evaluations < full.utility_evaluations
        assert stopped.metadata["stopped_early"] is True
        assert stopped.metadata["stopped_by"] == "budget:8"

    def test_rule_not_fired_leaves_metadata_clean(self):
        result = IPSS(total_rounds=GAMMA, seed=0).run(
            monotone_game(N, seed=7), N, stopping_rule=BudgetRule(10_000)
        )
        assert "stopped_early" not in result.metadata

    def test_on_snapshot_observes_every_chunk(self):
        seen = []
        result = IPSS(total_rounds=GAMMA, seed=0).run(
            monotone_game(N, seed=7), N, on_snapshot=seen.append
        )
        assert seen[-1].done
        assert seen[-1].evaluations == result.utility_evaluations
        assert len(seen) >= 2

    def test_rank_rule_stops_ipss_early_and_keeps_ranking(self):
        # Well-separated client values: the ranking settles early, so the
        # rank-stability rule prunes the tail of the partial stratum.
        from repro.fl import TabularUtility

        def separated_game():
            weights = np.linspace(0.1, 1.0, 10)
            total = weights.sum() ** 0.6

            def function(coalition):
                if not coalition:
                    return 0.1
                mass = sum(weights[i] for i in coalition) ** 0.6
                return 0.1 + 0.85 * mass / total

            return TabularUtility.from_function(10, function)

        full = IPSS(total_rounds=32, seed=0).run(separated_game(), 10)
        stopped = IPSS(total_rounds=32, seed=0).run(
            separated_game(), 10,
            stopping_rule=ConvergenceRule(metric="rank", patience=2),
        )
        assert stopped.utility_evaluations < full.utility_evaluations
        assert stopped.ranking().tolist() == full.ranking().tolist()
