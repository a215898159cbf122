"""HTTP front end: endpoints, status mapping, metrics, graceful shutdown."""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro import stps_join
from repro.datasets.loaders import save_tsv
from repro.serve import (
    JoinHTTPServer,
    JoinService,
    ServeClient,
    ServerError,
    serve_forever,
)
from tests.helpers import build_clustered_dataset

EPS_LOC, EPS_DOC, EPS_USER = 0.05, 0.3, 0.2


@pytest.fixture(scope="module")
def dataset():
    return build_clustered_dataset(seed=11, n_users=10, objects_per_user=5)


@pytest.fixture()
def served(dataset):
    """A running server on a free port; yields (client, server, service)."""
    service = JoinService(cache_capacity=32, max_inflight=1, max_queue=0)
    service.register_dataset("demo", dataset)
    server = JoinHTTPServer(("127.0.0.1", 0), service, drain_timeout=2.0)
    thread = threading.Thread(
        target=serve_forever, args=(server, False), daemon=True
    )
    thread.start()
    client = ServeClient(f"http://127.0.0.1:{server.port}", timeout=10.0)
    try:
        yield client, server, service
    finally:
        server.initiate_shutdown()
        thread.join(timeout=10)


class TestEndpoints:
    def test_health(self, served):
        client, _, _ = served
        health = client.health()
        assert health["status"] == "ok"
        assert health["datasets"] == ["demo"]
        assert health["admission"]["max_inflight"] == 1

    def test_datasets_listing(self, served, dataset):
        client, _, _ = served
        listing = client.datasets()
        assert listing[0]["name"] == "demo"
        assert listing[0]["fingerprint"] == dataset.fingerprint()

    def test_register_over_http(self, served, tmp_path):
        client, _, _ = served
        extra = build_clustered_dataset(seed=3, n_users=6, objects_per_user=4)
        path = tmp_path / "extra.tsv"
        save_tsv(extra, str(path))
        described = client.register("extra", str(path))
        # The TSV round-trip stringifies user ids, so compare against
        # the content the server actually loaded.
        from repro.datasets.loaders import load_tsv

        assert described["fingerprint"] == load_tsv(str(path)).fingerprint()
        assert sorted(d["name"] for d in client.datasets()) == ["demo", "extra"]

    def test_join_matches_direct(self, served, dataset):
        client, _, _ = served
        response = client.join("demo", EPS_LOC, EPS_DOC, EPS_USER)
        direct = stps_join(dataset, EPS_LOC, EPS_DOC, EPS_USER)
        assert json.dumps(response["pairs"]) == json.dumps(
            [[p.user_a, p.user_b, p.score] for p in direct]
        )
        again = client.join("demo", EPS_LOC, EPS_DOC, EPS_USER)
        assert again["cached"] is True
        assert again["pairs"] == response["pairs"]

    def test_metrics_exposition(self, served):
        client, _, _ = served
        client.join("demo", EPS_LOC, EPS_DOC, EPS_USER)
        text = client.metrics()
        assert "# TYPE repro_serve_requests_total counter" in text
        assert "repro_serve_cache_size" in text
        assert "repro_serve_request_seconds_bucket" in text


class TestErrorMapping:
    def test_unknown_endpoint_404(self, served):
        client, _, _ = served
        with pytest.raises(ServerError) as exc_info:
            client._request("GET", "/nope")
        assert exc_info.value.status == 404

    def test_unknown_dataset_404(self, served):
        client, _, _ = served
        with pytest.raises(ServerError) as exc_info:
            client.join("ghost", EPS_LOC, EPS_DOC, EPS_USER)
        assert exc_info.value.status == 404

    def test_bad_request_400(self, served):
        client, _, _ = served
        with pytest.raises(ServerError) as exc_info:
            client.query({"type": "join", "dataset": "demo",
                          "eps_loc": "wide", "eps_doc": 1, "eps_user": 1})
        assert exc_info.value.status == 400

    def test_non_finite_threshold_400(self, served):
        client, _, _ = served
        with pytest.raises(ServerError) as exc_info:
            client.query({"type": "topk", "dataset": "demo",
                          "eps_loc": float("inf"), "eps_doc": 0.3, "k": 3})
        assert exc_info.value.status == 400

    def test_knn_out_of_range_eps_doc_400(self, served, dataset):
        client, _, _ = served
        with pytest.raises(ServerError) as exc_info:
            client.knn("demo", dataset.users[0], EPS_LOC, 7.0, 3)
        assert exc_info.value.status == 400

    def test_invalid_json_400(self, served):
        client, _, _ = served
        request = urllib.request.Request(
            client.base_url + "/query",
            data=b"this is not json",
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as exc_info:
            urllib.request.urlopen(request, timeout=10)
        assert exc_info.value.code == 400

    def test_register_missing_file_400(self, served):
        client, _, _ = served
        with pytest.raises(ServerError) as exc_info:
            client.register("ghost", "/nonexistent/path.tsv")
        assert exc_info.value.status == 400

    def test_saturated_server_429_with_retry_after(self, served):
        client, _, service = served
        slot = service.admission.admit()  # occupy the single slot
        try:
            request = urllib.request.Request(
                client.base_url + "/query",
                data=json.dumps(
                    {"type": "join", "dataset": "demo", "no_cache": True,
                     "eps_loc": EPS_LOC, "eps_doc": EPS_DOC,
                     "eps_user": EPS_USER}
                ).encode("utf-8"),
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            with pytest.raises(urllib.error.HTTPError) as exc_info:
                urllib.request.urlopen(request, timeout=10)
            assert exc_info.value.code == 429
            assert exc_info.value.headers.get("Retry-After") is not None
        finally:
            slot.release()


class TestGracefulShutdown:
    def test_shutdown_endpoint_drains_and_stops(self, dataset):
        service = JoinService(cache_capacity=8)
        service.register_dataset("demo", dataset)
        server = JoinHTTPServer(("127.0.0.1", 0), service, drain_timeout=2.0)
        thread = threading.Thread(
            target=serve_forever, args=(server, False), daemon=True
        )
        thread.start()
        client = ServeClient(f"http://127.0.0.1:{server.port}", timeout=10.0)
        assert client.health()["status"] == "ok"
        assert client.shutdown() == {"status": "draining"}
        thread.join(timeout=10)
        assert not thread.is_alive()
        with pytest.raises((ServerError, OSError)):
            client.health()

    def test_draining_rejects_new_queries(self, dataset):
        service = JoinService(cache_capacity=8)
        service.register_dataset("demo", dataset)
        server = JoinHTTPServer(("127.0.0.1", 0), service, drain_timeout=2.0)
        thread = threading.Thread(
            target=serve_forever, args=(server, False), daemon=True
        )
        thread.start()
        client = ServeClient(f"http://127.0.0.1:{server.port}", timeout=10.0)
        # Hold a slot so the drain thread keeps the server up briefly.
        slot = service.admission.admit()
        try:
            server.initiate_shutdown()
            with pytest.raises(ServerError) as exc_info:
                client.join("demo", EPS_LOC, EPS_DOC, EPS_USER,
                            no_cache=True)
            assert exc_info.value.status == 503
        finally:
            slot.release()
        thread.join(timeout=10)
        assert not thread.is_alive()
