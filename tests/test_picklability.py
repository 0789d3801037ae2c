"""The pickling-boundary contract (the RPR004 rule's referent).

Everything a caller may ship to another process — the oracle's evaluator,
with its model factories, declarative task specs and their registered
builders, scenario definitions — must survive
``pickle.dumps``/``pickle.loads``.  A lambda or closure anywhere on these
paths works in-process and then breaks the moment it is pickled, which is
why ``repro check`` (rule RPR004) points here: this test pins the contract
the rule enforces statically.
"""

from __future__ import annotations

import pickle

import pytest

from repro.experiments.config import ExperimentScale
from repro.experiments.specs import TASK_REGISTRY, TaskSpec
from repro.experiments.tasks import MODEL_NAMES, _model_factory
from repro.scenarios import BUILTIN_SCENARIOS


def _round_trip(obj):
    return pickle.loads(pickle.dumps(obj))


@pytest.mark.parametrize("model", MODEL_NAMES)
def test_every_registered_model_factory_pickles(model):
    factory = _model_factory(
        model,
        n_features=8,
        n_classes=3,
        image_size=8,
        scale=ExperimentScale.from_name("tiny"),
    )
    restored = _round_trip(factory)
    # The restored factory must still *work*, not merely deserialize: a
    # worker process rebuilds the model from it before every evaluation.
    assert type(restored()) is type(factory())


@pytest.mark.parametrize("kind", sorted(TASK_REGISTRY))
def test_every_task_builder_pickles(kind):
    builder = TASK_REGISTRY[kind]
    assert _round_trip(builder) is builder  # module-level: pickled by reference


def _spec_for(kind: str) -> TaskSpec:
    if kind == "synthetic":
        return TaskSpec(kind, setup="same-size-same-distribution", scale="tiny")
    if kind == "scenario":
        return TaskSpec(kind, scenario="free-rider", scale="tiny")
    return TaskSpec(kind, scale="tiny")


@pytest.mark.parametrize("kind", sorted(TASK_REGISTRY))
def test_every_task_spec_pickles(kind):
    spec = _spec_for(kind)
    assert _round_trip(spec) == spec


@pytest.mark.parametrize(
    "scenario", BUILTIN_SCENARIOS, ids=[s.name for s in BUILTIN_SCENARIOS]
)
def test_every_catalog_scenario_pickles(scenario):
    restored = _round_trip(scenario)
    assert restored == scenario
    assert restored.layout() == scenario.layout()


def test_synthetic_evaluator_pickles():
    # End to end: ``trainer.utility`` is the evaluator the batch oracle hands
    # to executors — what a process boundary would have to pickle.
    spec = _spec_for("synthetic")
    oracle = spec.build()
    evaluator = _round_trip(oracle.trainer.utility)
    coalition = (0,)
    assert evaluator(coalition) == oracle.trainer.utility(coalition)
