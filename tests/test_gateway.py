"""Live HTTP service, SSE streaming, round-robin balancing, and bench client."""

from __future__ import annotations

import json
import socket
import time
import urllib.error
import urllib.request

import pytest

import adapterd.gateway as gateway
from adapterd.core import EngineConfig, WorkloadConfig, adapter_name
from adapterd.engine import run
from adapterd.gateway import (
    _MAX_BODY_BYTES,
    _READ_TIMEOUT_S,
    ReplicaSet,
    _GatewayHandler,
    bench,
    start_server,
)


def _post(url, body, timeout=10.0):
    request = urllib.request.Request(
        url,
        data=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    return urllib.request.urlopen(request, timeout=timeout)


def _read_sse_tokens(response):
    indices = []
    saw_done = False
    for raw in response:
        line = raw.strip()
        if not line.startswith(b"data: "):
            continue
        payload = line[len(b"data: "):]
        if payload == b"[DONE]":
            saw_done = True
            break
        indices.append(json.loads(payload)["token_index"])
    return indices, saw_done


# A fast engine so live tests finish quickly: 1 ms prefill, 2 ms decode gap.
_FAST = EngineConfig(
    prefill_base_ms=1.0,
    prefill_per_token_ms=0.0,
    decode_base_ms=2.0,
    decode_per_seq_ms=0.0,
    t_download_ms=1.0,
    t_disk_to_cpu_ms=1.0,
    t_cpu_to_gpu_ms=1.0,
)


@pytest.fixture()
def server():
    handle = start_server(_FAST, port=0, adapters=[adapter_name(0)])
    yield handle
    handle.stop()


def test_healthz(server):
    with urllib.request.urlopen(f"{server.url}/healthz", timeout=5.0) as response:
        assert response.status == 200
        assert response.read() == b"ok"


def test_metrics_endpoint_shape(server):
    with urllib.request.urlopen(f"{server.url}/v1/metrics", timeout=5.0) as response:
        payload = json.loads(response.read())
    assert set(payload) >= {"config", "summary", "per_adapter", "cache"}
    assert payload["config"]["engine"] == _FAST.to_dict()


def test_generate_stream_five_tokens(server):
    with _post(f"{server.url}/v1/generate",
               {"input_tokens": 3, "max_new_tokens": 5, "stream": True}) as response:
        assert response.status == 200
        assert response.headers.get("Content-Type", "").startswith("text/event-stream")
        indices, saw_done = _read_sse_tokens(response)
    assert indices == [0, 1, 2, 3, 4]
    assert saw_done


def test_generate_single_token_stream(server):
    with _post(f"{server.url}/v1/generate",
               {"input_tokens": 1, "max_new_tokens": 1, "stream": True}) as response:
        indices, saw_done = _read_sse_tokens(response)
    assert indices == [0]
    assert saw_done


def test_generate_prompt_text_counts_tokens(server):
    with _post(f"{server.url}/v1/generate",
               {"prompt": "count these four tokens", "max_new_tokens": 1}) as response:
        payload = json.loads(response.read())
    assert payload["input_tokens"] == 4
    assert payload["output_tokens"] == 1


def test_generate_known_adapter(server):
    with _post(f"{server.url}/v1/generate",
               {"adapter": "adapter-00", "input_tokens": 1,
                "max_new_tokens": 2, "stream": True}) as response:
        indices, saw_done = _read_sse_tokens(response)
    assert indices == [0, 1] and saw_done


def test_generate_malformed_body_lists_violations(server):
    try:
        _post(f"{server.url}/v1/generate", {"input_tokens": 0, "max_new_tokens": -3})
        raise AssertionError("expected HTTP 400")
    except urllib.error.HTTPError as error:
        assert error.code == 400
        violations = json.loads(error.read())["violations"]
        assert len(violations) == 2


def test_generate_unknown_adapter_404(server):
    try:
        _post(f"{server.url}/v1/generate",
              {"adapter": "adapter-99", "input_tokens": 1, "max_new_tokens": 1})
        raise AssertionError("expected HTTP 404")
    except urllib.error.HTTPError as error:
        assert error.code == 404


def test_adapterd_port_env_override(monkeypatch):
    monkeypatch.setenv("ADAPTERD_PORT", "0")
    handle = start_server(_FAST)
    try:
        assert handle.port > 0
        with urllib.request.urlopen(f"{handle.url}/healthz", timeout=5.0) as response:
            assert response.read() == b"ok"
    finally:
        handle.stop()


def _bench_workload(**overrides):
    base = dict(
        n_adapters=0,
        users=1,
        duration_ms=500.0,
        input_tokens_min=1,
        input_tokens_max=1,
        output_tokens_min=3,
        output_tokens_max=3,
        seed=77,
    )
    base.update(overrides)
    return WorkloadConfig(**base)


def test_bench_single_user_identity_and_shape(server):
    report = bench(ReplicaSet(endpoints=(server.url,)), _bench_workload())
    assert report.summary["failure_count"] == 0
    assert report.summary["completed"] >= 1
    for record in report.records:
        assert record.submit_ms <= record.first_token_ms <= record.last_token_ms
        ttft = record.first_token_ms - record.submit_ms
        streaming = record.last_token_ms - record.first_token_ms
        total = record.last_token_ms - record.submit_ms
        assert abs(total - (ttft + streaming)) < 5.0
    assert report.config["engine"] == _FAST.to_dict()


def test_bench_two_replicas_round_robin_within_one():
    first = start_server(_FAST, port=0)
    second = start_server(_FAST, port=0)
    try:
        report = bench(
            ReplicaSet(endpoints=(first.url, second.url)), _bench_workload()
        )
        counts = report.per_replica
        assert set(counts) == {first.url, second.url}
        assert abs(counts[first.url] - counts[second.url]) <= 1
        assert sum(counts.values()) == report.summary["completed"]
    finally:
        first.stop()
        second.stop()


def _record_endpoints(monkeypatch):
    """Wrap ``gateway._stream_request`` so each endpoint bench sends to is kept."""
    sent = []
    stream_request = gateway._stream_request

    def recording(endpoint, *args):
        sent.append(endpoint)
        return stream_request(endpoint, *args)

    monkeypatch.setattr(gateway, "_stream_request", recording)
    return sent


def _bench_on_servers(count, workload):
    servers = [start_server(_FAST, port=0) for _ in range(count)]
    try:
        endpoints = tuple(server.url for server in servers)
        return endpoints, bench(ReplicaSet(endpoints=endpoints), workload)
    finally:
        for server in servers:
            server.stop()


def test_pick_replica_cycles_strictly(monkeypatch):
    """bench picks replicas in strict rotation, starting from the first."""
    sent = _record_endpoints(monkeypatch)
    endpoints, report = _bench_on_servers(3, _bench_workload())
    assert report.summary["failure_count"] == 0
    # One user, so requests go to a, b, c, a, b, ... in that order.
    assert len(sent) >= 3
    assert sent == [endpoints[i % 3] for i in range(len(sent))]
    counts = [report.per_replica[endpoint] for endpoint in endpoints]
    assert counts == [sent.count(endpoint) for endpoint in endpoints]


def test_pick_replica_singleton_and_exact_counts(monkeypatch, server):
    """One replica takes every request; several split them exactly by rotation."""
    sent = _record_endpoints(monkeypatch)
    report = bench(ReplicaSet(endpoints=(server.url,)), _bench_workload())
    assert report.summary["failure_count"] == 0
    assert len(sent) >= 1
    assert set(sent) == {server.url}
    assert report.per_replica == {server.url: report.summary["completed"]}

    # Two users share the rotation, so the order interleaves but the counts
    # are still those of strict rotation from the first endpoint.
    sent.clear()
    endpoints, report = _bench_on_servers(3, _bench_workload(users=2))
    assert report.summary["failure_count"] == 0
    total = len(sent)
    assert total >= 3
    expected = [total // 3 + (1 if i < total % 3 else 0) for i in range(3)]
    assert [sent.count(endpoint) for endpoint in endpoints] == expected
    assert [report.per_replica[endpoint] for endpoint in endpoints] == expected


def test_bench_rejects_an_empty_replica_set():
    with pytest.raises(ValueError, match="at least one replica endpoint"):
        bench(ReplicaSet(endpoints=()), _bench_workload())


def test_bench_dead_endpoint_reports_failures():
    report = bench(
        ReplicaSet(endpoints=("http://127.0.0.1:9",)),
        _bench_workload(duration_ms=300.0),
    )
    assert report.summary["failure_count"] >= 1
    assert report.summary["completed"] == 0
    assert report.summary["request_count"] == 0


def test_live_averages_match_virtual_model():
    """With a single 20 ms decode constant, live pacing must track virtual time."""
    config = EngineConfig(
        prefill_base_ms=0.0,
        prefill_per_token_ms=0.0,
        decode_base_ms=20.0,
        decode_per_seq_ms=0.0,
        switch_overhead_ms=0.0,
    )
    workload = _bench_workload(
        duration_ms=1000.0, output_tokens_min=5, output_tokens_max=5
    )
    virtual = run(config, workload)
    virtual_avg = virtual.summary["total_request_ms"]["average"]
    assert virtual_avg == pytest.approx(100.0, abs=1e-9)
    handle = start_server(config, port=0)
    try:
        live = bench(ReplicaSet(endpoints=(handle.url,)), workload)
    finally:
        handle.stop()
    live_avg = live.summary["total_request_ms"]["average"]
    assert live_avg == pytest.approx(virtual_avg, rel=0.10)


def _raw_post(port, content_length, body=b"", timeout=5.0):
    """Send a POST with the given Content-Length and body; return the whole reply."""
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        sock.sendall(
            b"POST /v1/generate HTTP/1.0\r\nContent-Type: application/json\r\n"
            + f"Content-Length: {content_length}\r\n\r\n".encode("ascii")
            + body
        )
        reply = b""
        while chunk := sock.recv(4096):
            reply += chunk
    return reply


@pytest.mark.parametrize(
    ("content_length", "status"),
    # status None: the body is 2 bytes short of 10, so the read stalls until the
    # handler's socket timeout closes the connection without a reply.
    [("abc", 400), ("-1", 400), (str(_MAX_BODY_BYTES + 1), 413), ("10", None)],
)
def test_bad_content_length_answered_without_traceback(
    server, capfd, monkeypatch, content_length, status
):
    assert _GatewayHandler.timeout == _READ_TIMEOUT_S
    monkeypatch.setattr(_GatewayHandler, "timeout", 0.5)
    start = time.monotonic()
    reply = _raw_post(server.port, content_length, b"{}" if status is None else b"")
    if status is None:
        assert reply == b""
        assert time.monotonic() - start < 3.0
    else:
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.split()[1] == str(status).encode("ascii")
        if status == 400:
            violations = json.loads(body)["violations"]
            assert violations and content_length in violations[0]
    assert capfd.readouterr().err == ""
