"""The HTTP surface, end to end: real sockets on an ephemeral port."""

import contextlib
import json
import sqlite3
import threading
import urllib.request

import pytest

from repro.service.client import ServiceClient, ServiceError
from repro.service.jobs import JOBS_FILENAME, JobStore
from repro.service.scheduler import ValuationService
from repro.service.server import serve
from tests.service.helpers import direct_values, make_spec, make_task


@pytest.fixture
def service_client(tmp_path):
    with running_service(str(tmp_path / "state"), workers=2) as running:
        yield running


@contextlib.contextmanager
def running_service(state_dir, workers):
    service = ValuationService(state_dir, workers=workers).start()
    server = serve(service, host="127.0.0.1", port=0)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.1}, daemon=True
    )
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield service, ServiceClient(f"http://{host}:{port}")
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        service.stop()


class TestJobEndpoints:
    def test_submit_wait_fetch_round_trip(self, service_client):
        _service, client = service_client
        spec = make_spec(n_clients=5)
        created = client.submit(spec.to_dict())
        assert created["status"] == "queued"
        assert created["job_id"].startswith("job-")
        final = client.wait(created["job_id"], timeout=60.0)
        assert final["status"] == "done"
        assert final["result"]["result"]["values"] == direct_values(
            spec.task, spec.algorithm
        )

    def test_list_filters_by_tenant_and_status(self, service_client):
        _service, client = service_client
        a = client.submit({**make_spec(n_clients=4).to_dict(), "tenant": "alice"})
        client.submit({**make_spec(n_clients=4, seed=1).to_dict(), "tenant": "bob"})
        client.wait(a["job_id"], timeout=60.0)
        alice_jobs = client.jobs(tenant="alice")
        assert [j["tenant"] for j in alice_jobs] == ["alice"]
        assert client.jobs(status="failed") == []
        # The list view omits result payloads; the detail view carries them.
        done = client.wait(a["job_id"], timeout=60.0)
        listed = [j for j in client.jobs(tenant="alice") if j["job_id"] == a["job_id"]]
        assert "result" not in listed[0]
        assert "result" in done

    def test_malformed_spec_is_a_400_with_the_validation_message(
        self, service_client
    ):
        _service, client = service_client
        with pytest.raises(ServiceError) as excinfo:
            client.submit({"task": make_task(), "algorithm": "Nope-Shapley"})
        assert excinfo.value.status == 400
        assert "unknown algorithm" in str(excinfo.value)
        with pytest.raises(ServiceError) as excinfo:
            client.submit({"task": make_task(), "algorithm": "IPSS", "algoritm": "x"})
        assert excinfo.value.status == 400

    def test_fleet_backend_submit_is_a_400_naming_the_cause(self, service_client):
        _service, client = service_client
        spec = {"task": make_task(), "algorithm": "IPSS", "backend": "fleet"}
        with pytest.raises(ServiceError) as excinfo:
            client.submit(spec)
        assert excinfo.value.status == 400
        assert "the 'fleet' backend was removed" in str(excinfo.value)
        assert "several `repro run` processes" in str(excinfo.value)
        assert client.jobs() == []

    @pytest.mark.parametrize("name", ["thread", "process"])
    def test_pooled_backend_submit_is_a_400_naming_the_cause(
        self, name, service_client
    ):
        _service, client = service_client
        spec = {"task": make_task(), "algorithm": "IPSS", "backend": name}
        with pytest.raises(ServiceError) as excinfo:
            client.submit(spec)
        assert excinfo.value.status == 400
        assert f"the '{name}' backend was removed" in str(excinfo.value)
        assert "several `repro run` processes" in str(excinfo.value)
        assert client.jobs() == []

    def test_fleet_field_submit_is_a_400_naming_each_field(self, service_client):
        _service, client = service_client
        spec = {
            "task": make_task(),
            "algorithm": "IPSS",
            "backend": "vectorized",
            "spawn_workers": 3,
            "worker_backend": "vectorized",
            "queue_dir": "/nonexistent",
        }
        with pytest.raises(ServiceError) as excinfo:
            client.submit(spec)
        assert excinfo.value.status == 400
        for field_name in ("queue_dir", "spawn_workers", "worker_backend"):
            assert field_name in str(excinfo.value)
        assert "removed 'fleet' backend" in str(excinfo.value)
        assert client.jobs() == []

    def test_job_rows_stored_by_older_versions_still_load_and_run(self, tmp_path):
        """Older versions stored ``n_workers``, the pooled backends and fleet
        fields they ignored next to another backend.  Such a row runs as
        that version ran it, and neither the scheduler nor GET /jobs trips."""
        state_dir = str(tmp_path / "state")
        spec = make_spec(n_clients=4)
        with JobStore(state_dir) as store:
            job_id = store.submit(spec).job_id
        stored = {
            **spec.to_dict(),
            "backend": "thread",
            "n_workers": 2,
            "queue_dir": "/nonexistent",
            "spawn_workers": 3,
            "worker_backend": "process",
        }
        with contextlib.closing(
            sqlite3.connect(str(tmp_path / "state" / JOBS_FILENAME))
        ) as connection, connection:
            connection.execute(
                "UPDATE jobs SET spec = ? WHERE job_id = ?",
                (json.dumps(stored), job_id),
            )
        # One scheduler worker: it must survive the legacy row to run the next job.
        with running_service(state_dir, workers=1) as (_service, client):
            final = client.wait(job_id, timeout=60.0)
            assert final["status"] == "done"
            assert final["result"]["result"]["values"] == direct_values(
                spec.task, spec.algorithm
            )
            assert [j["job_id"] for j in client.jobs()] == [job_id]
            later = client.submit(make_spec(n_clients=4, seed=1).to_dict())
            assert client.wait(later["job_id"], timeout=60.0)["status"] == "done"

    def test_unknown_job_is_a_404_everywhere(self, service_client):
        _service, client = service_client
        for method in (client.job, client.cancel):
            with pytest.raises(ServiceError) as excinfo:
                method("job-999999")
            assert excinfo.value.status == 404

    def test_cancel_over_http(self, service_client):
        service, client = service_client
        # Fill both workers so the victim stays queued.
        for seed in (1, 2):
            client.submit(make_spec(n_clients=8, seed=seed).to_dict())
        victim = client.submit(make_spec(n_clients=4, seed=3).to_dict())
        response = client.cancel(victim["job_id"])
        assert response["status"] in ("cancelled", "cancelling")
        final = client.wait(victim["job_id"], timeout=60.0)
        assert final["status"] == "cancelled"


class TestStreaming:
    def test_sse_replays_the_whole_event_log(self, service_client):
        _service, client = service_client
        spec = make_spec(n_clients=5)
        created = client.submit(spec.to_dict())
        events = list(client.stream(created["job_id"]))
        kinds = [e["event"] for e in events]
        assert kinds[0] == "queued"
        assert kinds[-1] == "result"
        assert "snapshot" in kinds
        snapshots = [e for e in events if e["event"] == "snapshot"]
        assert all(e["job_id"] == created["job_id"] for e in snapshots)

    def test_sse_frames_are_well_formed(self, service_client):
        service, client = service_client
        created = client.submit(make_spec(n_clients=4).to_dict())
        client.wait(created["job_id"], timeout=60.0)
        with urllib.request.urlopen(
            f"{client.base_url}/v1/jobs/{created['job_id']}/stream", timeout=30
        ) as response:
            assert response.headers["Content-Type"] == "text/event-stream"
            body = response.read().decode("utf-8")
        frames = [f for f in body.split("\n\n") if f]
        assert all(f.startswith("data: ") for f in frames)
        for frame in frames:
            json.loads(frame[len("data: ") :])


class TestOperationalEndpoints:
    def test_healthz_reports_queue_counts(self, service_client):
        _service, client = service_client
        health = client.health()
        assert health["status"] == "ok"
        assert isinstance(health["jobs"], dict)

    def test_metrics_is_prometheus_exposition_text(self, service_client):
        _service, client = service_client
        created = client.submit(make_spec(n_clients=4).to_dict())
        client.wait(created["job_id"], timeout=60.0)
        text = client.metrics()
        assert "# TYPE repro_service_jobs_submitted counter" in text
        assert "repro_service_http_requests" in text

    def test_unknown_route_is_a_404(self, service_client):
        _service, client = service_client
        with pytest.raises(ServiceError) as excinfo:
            client._request("GET", "/v2/nonsense")
        assert excinfo.value.status == 404
