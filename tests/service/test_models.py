"""JobSpec/JobRecord wire schema: validation, round-trips, namespacing."""

import pytest

from repro.service.models import (
    DEFAULT_TENANT,
    JOB_STATUSES,
    JobSpec,
    TERMINAL_STATUSES,
    tenant_namespace,
)
from tests.service.helpers import make_spec, make_task


class TestJobSpecValidation:
    def test_valid_spec_round_trips_through_dict(self):
        spec = make_spec(tenant="alice", priority=3, stop_on="ci:0.05", backend="vectorized")
        again = JobSpec.from_dict(spec.to_dict())
        assert again == spec

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            make_spec(algorithm="Exact-Shapley-Typo")

    def test_malformed_task_rejected(self):
        with pytest.raises((ValueError, KeyError)):
            JobSpec(task={"kind": "no-such-kind"}, algorithm="MC-Shapley")

    def test_empty_tenant_rejected(self):
        with pytest.raises(ValueError, match="tenant"):
            make_spec(tenant="")

    def test_non_integer_priority_rejected(self):
        with pytest.raises(ValueError, match="priority"):
            make_spec(priority=1.5)
        with pytest.raises(ValueError, match="priority"):
            make_spec(priority=True)

    def test_malformed_stop_on_rejected(self):
        with pytest.raises(ValueError):
            make_spec(stop_on="whenever")

    def test_negative_checkpoint_every_rejected(self):
        with pytest.raises(ValueError, match="checkpoint_every"):
            make_spec(checkpoint_every=-1)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            make_spec(backend="gpu-cluster")

    def test_retired_fleet_backend_rejected_like_a_plan(self):
        # One validator serves JobSpec and ExperimentPlan: same field, same error.
        with pytest.raises(ValueError, match="backend: the 'fleet' backend was removed"):
            make_spec(backend="fleet")

    def test_from_dict_rejects_unknown_fields(self):
        payload = {"task": make_task(), "algorithm": "MC-Shapley", "algorithms": "x"}
        with pytest.raises(ValueError, match="unknown JobSpec fields"):
            JobSpec.from_dict(payload)

    def test_from_dict_requires_task_and_algorithm(self):
        with pytest.raises(ValueError, match="requires fields"):
            JobSpec.from_dict({"task": make_task()})
        with pytest.raises(ValueError, match="requires fields"):
            JobSpec.from_dict({"algorithm": "MC-Shapley"})

    def test_from_dict_rejects_non_object(self):
        with pytest.raises(ValueError, match="JSON object"):
            JobSpec.from_dict(["task"])


class TestTenantNamespace:
    def test_default_tenant_keeps_bare_task_fingerprint(self):
        spec = make_spec()
        assert spec.tenant == DEFAULT_TENANT
        assert spec.namespace() == spec.task_fingerprint()

    def test_other_tenants_never_alias_the_bare_fingerprint(self):
        fp = make_spec().task_fingerprint()
        assert tenant_namespace("alice", fp) != fp
        assert tenant_namespace("bob", fp) != fp

    def test_distinct_tenants_get_distinct_namespaces(self):
        fp = make_spec().task_fingerprint()
        assert tenant_namespace("alice", fp) != tenant_namespace("bob", fp)

    def test_namespace_is_key_safe_for_any_tenant_string(self):
        fp = make_spec().task_fingerprint()
        namespace = tenant_namespace("team:eu/résearch", fp)
        assert ":" not in namespace and "/" not in namespace

    def test_same_tenant_same_task_is_stable(self):
        fp = make_spec().task_fingerprint()
        assert tenant_namespace("alice", fp) == tenant_namespace("alice", fp)


class TestLifecycleConstants:
    def test_terminal_statuses_are_a_subset_of_all_statuses(self):
        assert set(TERMINAL_STATUSES) < set(JOB_STATUSES)
        assert "queued" in JOB_STATUSES and "running" in JOB_STATUSES

    def test_record_to_dict_carries_scheduling_coordinates(self):
        spec = make_spec(tenant="alice", priority=7)
        from repro.service.models import JobRecord

        record = JobRecord(job_id="job-000001", spec=spec)
        payload = record.to_dict()
        assert payload["tenant"] == "alice"
        assert payload["priority"] == 7
        assert payload["algorithm"] == "MC-Shapley"
        assert not record.terminal
