"""Live HTTP service, SSE streaming, round-robin balancing, and bench client."""

from __future__ import annotations

import http.client
import itertools
import json
import socket
import statistics
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import adapterd.gateway as gateway
from adapterd.core import BASE_ADAPTER, EngineConfig, WorkloadConfig, adapter_name
from adapterd.engine import decode_gap, prefill_time, run
from adapterd.gateway import (
    _ERROR_BODY_BYTES,
    _MAX_BODY_BYTES,
    _READ_TIMEOUT_S,
    ReplicaSet,
    _fit,
    _GatewayHandler,
    _stream_request,
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


def test_the_records_of_a_bench_hold_one_string_per_adapter():
    handle = start_server(_FAST, port=0, adapters=[adapter_name(i) for i in range(3)])
    try:
        report = bench(ReplicaSet(endpoints=(handle.url,)), _bench_workload(n_adapters=3, users=3))
    finally:
        handle.stop()
    assert report.summary["failure_count"] == 0
    server_records = handle.engine.report().records
    for records in (report.records, server_records):
        names = {record.adapter for record in records}
        assert len(names) > 1
        assert len({id(record.adapter) for record in records}) == len(names)


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


def test_bench_live_and_dead_endpoints_account_every_request(server):
    """A dead replica's requests fail and are counted; the live one's echo stands in for it."""
    dead = "http://127.0.0.1:9"
    report = bench(
        ReplicaSet(endpoints=(server.url, dead)),
        _bench_workload(users=2, duration_ms=400.0),
    )
    summary = report.summary
    assert summary["failure_count"] >= 1
    assert summary["submitted"] == summary["completed"] + summary["failure_count"]
    assert summary["discarded"] == 0
    assert report.per_replica[dead] == 0
    assert report.per_replica[server.url] == summary["completed"] == len(report.records)
    assert report.config["engine"] == _FAST.to_dict()


def test_bench_counters_lose_no_update_under_thread_switching(monkeypatch, server):
    """Six users share bench's per-endpoint counters while threads switch every microsecond."""
    sent = _record_endpoints(monkeypatch)
    dead = "http://127.0.0.1:9"
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        report = bench(
            ReplicaSet(endpoints=(server.url, dead)),
            _bench_workload(users=6, duration_ms=400.0),
        )
    finally:
        sys.setswitchinterval(interval)
    summary = report.summary
    assert summary["submitted"] == len(sent) == summary["completed"] + summary["failure_count"]
    assert summary["failure_count"] == sent.count(dead) >= 1
    assert report.per_replica == {server.url: sent.count(server.url), dead: 0}
    assert len(report.records) == summary["completed"]


def test_bench_repeated_endpoint_counts_each_request_once(server):
    report = bench(ReplicaSet(endpoints=(server.url, server.url)), _bench_workload())
    summary = report.summary
    assert summary["failure_count"] == 0
    assert summary["submitted"] == summary["completed"] == summary["request_count"] >= 1
    assert len({record.request_id for record in report.records}) == len(report.records)
    assert report.per_replica == {server.url: summary["completed"]}


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


def _raw_request(port, request, timeout=5.0):
    """Send the raw request bytes; return the whole reply."""
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        sock.sendall(request)
        reply = b""
        while chunk := sock.recv(4096):
            reply += chunk
    return reply


def _raw_post(port, content_length, body=b"", timeout=5.0):
    """Send a POST with the given Content-Length and body; return the whole reply."""
    return _raw_request(
        port,
        b"POST /v1/generate HTTP/1.0\r\nContent-Type: application/json\r\n"
        + f"Content-Length: {content_length}\r\n\r\n".encode("ascii")
        + body,
        timeout,
    )


@pytest.mark.parametrize(
    ("content_length", "status"),
    # status None: the body is 2 bytes short of 10, so the read stalls until the
    # handler's socket timeout closes the connection without a reply.  Leading
    # zeros do not count, and a length of more digits than int() parses is over
    # the limit.
    [
        ("abc", 400),
        ("-1", 400),
        (str(_MAX_BODY_BYTES + 1), 413),
        ("10", None),
        pytest.param("0" * 5000 + "10", None, id="leading-zeros-None"),
        pytest.param("9" * 5000, 413, id="5000-digits-413"),
    ],
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


@pytest.mark.parametrize(
    "body",
    # Nesting deeper than the decoder recurses, and bytes that are not UTF-8.
    [b"[" * 200_000, b"\xff\xff\xff"],
    ids=["deep-nesting", "not-utf8"],
)
def test_bad_body_answered_without_traceback(server, capfd, body):
    head, _, reply = _raw_post(server.port, len(body), body).partition(b"\r\n\r\n")
    assert head.split()[1] == b"400"
    [violation] = json.loads(reply)["violations"]
    assert violation.startswith("body is not valid JSON: ")
    assert capfd.readouterr().err == ""


@pytest.mark.parametrize(
    ("body", "field"),
    [
        ({"input_tokens": 1, "max_new_tokens": True}, "max_new_tokens"),
        ({"input_tokens": 1, "max_new_tokens": 1.5}, "max_new_tokens"),
        ({"input_tokens": 1}, "max_new_tokens"),
        ({"input_tokens": 0, "max_new_tokens": 1}, "input_tokens"),
        ({"prompt": "", "max_new_tokens": 1}, "prompt"),
        ({"max_new_tokens": 1}, "input_tokens"),
        ({"input_tokens": 1, "max_new_tokens": 1, "adapter": ""}, "adapter"),
        ("x" * 100_000, "body"),
        ({"input_tokens": 1, "prompt": "a b", "max_new_tokens": 1}, "prompt"),
        ({"input_tokens": 1, "max_new_tokens": 1, "temperature": 0.5}, "temperature"),
        # Oversized values: the reply quotes each one cut short.
        ({"input_tokens": 1, "max_new_tokens": [0] * 200_000}, "max_new_tokens"),
        ({"input_tokens": 1, "max_new_tokens": 1, **{f"k{i}": 0 for i in range(80_000)}}, "k0"),
    ],
    ids=["bool-max-new", "float-max-new", "no-max-new", "zero-input", "empty-prompt",
         "no-input", "empty-adapter", "string-body", "input-and-prompt", "unknown-key",
         "600kB-list-max-new", "80000-unknown-keys"],
)
def test_bad_generate_body_names_its_field(server, capfd, body, field):
    data = json.dumps(body).encode("utf-8")
    head, _, reply = _raw_post(server.port, len(data), data).partition(b"\r\n\r\n")
    assert head.split()[1] == b"400"
    assert len(reply) < 1000  # a body is never echoed back whole
    [violation] = json.loads(reply)["violations"]
    assert field in violation
    assert capfd.readouterr().err == ""


_HUGE_ADAPTER = json.dumps(
    {"adapter": "a" * 900_000, "input_tokens": 1, "max_new_tokens": 1}
).encode("utf-8")
# Five known fields and one unknown key, each 150,000 characters: 7 violations.
_SIX_HUGE_FIELDS = json.dumps(
    {field: ["s" * 150_000] for field in ("input_tokens", "max_new_tokens", "prompt", "adapter",
                                          "stream")} | {"u" * 150_000: 0}
).encode("utf-8")
# Sent as UTF-8, 4 bytes a character, to stay under _MAX_BODY_BYTES; JSON
# escapes each one as 12 bytes in the reply.
_EMOJI_ADAPTER = json.dumps(
    {"adapter": "\U0001F600" * 250_000, "input_tokens": 1, "max_new_tokens": 1},
    ensure_ascii=False,
).encode("utf-8")


def _post_bytes(body):
    return b"POST /v1/generate HTTP/1.0\r\nContent-Length: %d\r\n\r\n" % len(body) + body


@pytest.mark.parametrize(
    ("raw", "status", "message"),
    [
        (_post_bytes(_HUGE_ADAPTER), 404, "unknown adapter: aaa"),
        (b"GET /" + b"p" * 60_000 + b" HTTP/1.0\r\n\r\n", 404, "no such path: /ppp"),
        (b"POST /v1/generate HTTP/1.0\r\nContent-Length: " + b"x" * 60_000 + b"\r\n\r\n",
         400, "Content-Length: must be"),
        # Each reply below quotes more than _ERROR_BODY_BYTES under core.clip alone.
        (_post_bytes(_SIX_HUGE_FIELDS), 400, "body: unknown fields ['uuu"),
        (_post_bytes(_EMOJI_ADAPTER), 404, "unknown adapter: \U0001F600"),
        (b"GET /" + b"\xe9" * 60_000 + b" HTTP/1.0\r\n\r\n", 404, "no such path: /\xe9\xe9"),
        (b"POST /v1/generate HTTP/1.0\r\nContent-Length: " + b"\xe9" * 60_000 + b"\r\n\r\n",
         400, "Content-Length: must be"),
    ],
    ids=["900kB-adapter", "60kB-path", "60kB-content-length", "six-150kB-fields",
         "250k-emoji-adapter", "60kB-latin1-path", "60kB-latin1-content-length"],
)
def test_an_oversized_input_is_quoted_back_cut(server, capfd, raw, status, message):
    head, _, reply = _raw_request(server.port, raw).partition(b"\r\n\r\n")
    assert head.split()[1] == str(status).encode("ascii")
    assert len(reply) < 1000
    payload = json.loads(reply)
    assert (payload["violations"][0] if status == 400 else payload["error"]).startswith(message)
    assert capfd.readouterr().err == ""


def test_a_cut_violation_list_says_how_many_it_left_out():
    violations = [f"v{i}: " + "x" * 400 for i in range(7)]
    assert _fit(violations[:2]) == violations[:2]
    assert _fit(violations[:3]) == [*violations[:2], "1 more left out"]
    assert _fit(violations) == [*violations[:2], "5 more left out"]


def _body_size(key, value):
    return len(json.dumps({key: value}, sort_keys=True) + "\n")


@settings(max_examples=300, deadline=None)
@given(st.lists(st.text(st.characters(codec="utf-8"), max_size=600), min_size=1, max_size=9))
@example(["\xe9" * 600])  # too long alone: cut
@example(["\U0001F600" * 100, "x" * 600, "y"])
def test_every_error_body_fits_the_budget(messages):
    """Whole messages, or a first one cut to a prefix, then the count left out."""
    shown = _fit(messages)
    assert _body_size("violations", shown) < _ERROR_BODY_BYTES
    assert _body_size("error", shown[0]) < _ERROR_BODY_BYTES
    if _body_size("violations", messages) < _ERROR_BODY_BYTES:
        assert shown == messages
    left = len(messages) - len(shown) + 1
    if shown[-1] == f"{left} more left out":
        shown = shown[:-1]
    else:
        assert len(shown) == len(messages)
    assert shown[1:] == messages[1:len(shown)]
    assert shown[0] == messages[0] or (
        shown[0].endswith("...") and messages[0].startswith(shown[0][:-3])
    )


def _engine_threads():
    return {t for t in threading.enumerate() if t.name == "adapterd-engine"}


def test_start_server_stops_its_engine_when_the_port_is_taken():
    server = start_server(_FAST, port=0)
    try:
        running = _engine_threads()
        with pytest.raises(OSError):
            start_server(_FAST, port=server.port)
        assert _engine_threads() == running
        assert server.url == f"http://127.0.0.1:{server.port}"
        with urllib.request.urlopen(server.url + "/healthz", timeout=10.0) as response:
            assert response.read() == b"ok"
    finally:
        server.stop()
    assert not _engine_threads() & running


# -- HTTP/1.1 keep-alive ---------------------------------------------------------


def _exchange(port, data, timeout=5.0):
    """Send ``data`` on one connection and half-close it; return every reply byte.

    The server may reset a connection it closes with request bytes unread; the
    replies sent before the reset still count.
    """
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        sock.sendall(data)
        sock.shutdown(socket.SHUT_WR)
        reply = b""
        try:
            while chunk := sock.recv(4096):
                reply += chunk
        except ConnectionResetError:
            pass
    return reply


_SMUGGLED = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"


@pytest.fixture(scope="module")
def kept_server():
    """One server for the keep-alive tests; each reads only the engine records it made."""
    handle = start_server(_FAST, port=0)
    yield handle
    handle.stop()


@pytest.mark.parametrize(
    ("head", "status"),
    [
        (b"POST /nowhere HTTP/1.1\r\nContent-Length: %d\r\n" % len(_SMUGGLED), 404),
        (b"POST /v1/generate HTTP/1.1\r\nContent-Length: %d\r\n" % (_MAX_BODY_BYTES + 1), 413),
        (b"POST /v1/generate HTTP/1.1\r\nContent-Length: abc\r\n", 400),
        (b"POST /v1/generate HTTP/1.1\r\nTransfer-Encoding: chunked\r\n", 400),
        (b"GET /healthz HTTP/1.1\r\nContent-Length: %d\r\n" % len(_SMUGGLED), 200),
    ],
    ids=["404-unknown-path", "413", "400-content-length", "transfer-encoding", "get-with-body"],
)
def test_a_reply_that_leaves_body_bytes_unread_closes_the_connection(
    kept_server, capfd, head, status
):
    """The body is a whole request of its own; it must never get a reply."""
    reply = _exchange(kept_server.port, head + b"Host: x\r\n\r\n" + _SMUGGLED)
    assert reply.startswith(b"HTTP/1.1 %d " % status)
    assert reply.count(b"HTTP/1.1 ") == 1
    assert b"Connection: close" in reply.partition(b"\r\n\r\n")[0].split(b"\r\n")
    assert capfd.readouterr().err == ""


@pytest.mark.parametrize("stream", [False, True], ids=["json", "stream"])
def test_a_kept_connection_serves_the_request_after_a_generate_call(kept_server, stream):
    body = json.dumps({"input_tokens": 1, "max_new_tokens": 3, "stream": stream}).encode()
    generate = b"POST /v1/generate HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n" % len(body)
    reply = _exchange(kept_server.port, generate + body + _SMUGGLED)
    first, second = reply.split(b"HTTP/1.1 200 OK\r\n")[1:]
    assert b"Connection: close" not in first
    if stream:
        assert b"\r\nTransfer-Encoding: chunked\r\n" in first
        assert first.endswith(b"\r\ne\r\ndata: [DONE]\n\n\r\n0\r\n\r\n")
        assert first.count(b"data: {") == 3
    else:
        assert json.loads(first.partition(b"\r\n\r\n")[2])["output_tokens"] == 3
    assert second.endswith(b"\r\n\r\nok")


@pytest.mark.parametrize("connection", [b"", b"Connection: keep-alive\r\n"],
                         ids=["plain", "keep-alive"])
def test_an_http_1_0_stream_is_sent_bare_and_ends_at_the_close(kept_server, capfd, connection):
    """HTTP/1.0 has no chunked coding (RFC 9112 section 6.1): the events, [DONE], then EOF."""
    body = json.dumps({"input_tokens": 1, "max_new_tokens": 4, "stream": True}).encode()
    head = b"POST /v1/generate HTTP/1.0\r\n%sContent-Length: %d\r\n\r\n" % (connection, len(body))
    head_block, _, events = _raw_request(kept_server.port, head + body).partition(b"\r\n\r\n")
    assert head_block.startswith(b"HTTP/1.1 200 ")
    assert b"Transfer-Encoding" not in head_block
    assert events == (
        b"".join(b'data: {"token_index": %d}\n\n' % i for i in range(4)) + b"data: [DONE]\n\n"
    )
    assert capfd.readouterr().err == ""


def test_a_generate_call_on_a_kept_connection_after_stop_is_refused_at_once(capfd):
    handle = start_server(_FAST, port=0)
    connection = http.client.HTTPConnection("127.0.0.1", handle.port, timeout=1.0)
    body = json.dumps({"input_tokens": 1, "max_new_tokens": 2})
    try:
        connection.request("POST", "/v1/generate", body)
        assert json.loads(connection.getresponse().read())["output_tokens"] == 2
        handle.stop()
        started = time.monotonic()
        connection.request("POST", "/v1/generate", body)
        try:
            response = connection.getresponse()  # a timeout raises
        except http.client.RemoteDisconnected:  # EOF is a refusal too
            pass
        else:
            assert response.status == 503
            assert response.headers["Connection"] == "close"
            response.read()
        assert time.monotonic() - started < 1.0
    finally:
        connection.close()
        handle.stop()
    assert handle.engine.submit(BASE_ADAPTER, 1, 1) is None
    assert len(handle.engine.report().records) == 1
    assert capfd.readouterr().err == ""


def test_stop_ends_every_call_still_in_flight(monkeypatch, capfd):
    """A stream is cut short with no [DONE], a JSON call gets a 503, and every handler exits."""
    accepted = _count_connections(monkeypatch)
    handle = start_server(_FAST, port=0)
    ended = {}  # caller -> (what it saw, when its call ended)

    def call(kind):
        body = json.dumps({"input_tokens": 1, "max_new_tokens": 2000, "stream": kind != "json"})
        connection = http.client.HTTPConnection("127.0.0.1", handle.port, timeout=5.0)
        seen = []
        try:
            if kind == "bench":  # 2,000 tokens at 2 ms each take ~4 s unless cut
                seen.append(_stream_request(handle.url, BASE_ADAPTER, 1, 2000, "b",
                                            time.monotonic(), {handle.url: connection}))
            elif kind == "json":
                connection.request("POST", "/v1/generate", body)
                response = connection.getresponse()
                seen = [response.status, response.headers["Connection"], response.read()]
            else:
                connection.request("POST", "/v1/generate", body)
                seen = list(connection.getresponse())
        except (OSError, ValueError, http.client.HTTPException) as error:
            seen.append(error)
        finally:
            connection.close()
            ended[kind] = seen, time.monotonic()

    callers = [threading.Thread(target=call, args=(kind,), daemon=True)
               for kind in ("stream", "bench", "json")]
    for caller in callers:
        caller.start()
    time.sleep(0.3)
    stopped = time.monotonic()
    handle.stop()
    for caller in callers:
        caller.join(timeout=5.0)
    streamed, replied, failure = ended["stream"][0], ended["json"][0], ended["bench"][0]
    assert streamed[0].startswith(b"data: {") and b"data: [DONE]\n" not in streamed
    assert len(streamed) < 2 * 2000
    assert replied == [503, "close", b'{"error": "server is stopping"}\n']
    assert [str(error) for error in failure] == ["stream closed before [DONE]"]
    assert max(end for _, end in ended.values()) - stopped < 1.0
    assert len(accepted) == 3
    for _, thread in accepted:
        thread.join(timeout=1.0)
        assert not thread.is_alive()
    assert capfd.readouterr().err == ""


def test_every_generate_reply_names_its_server_request_id(kept_server):
    connection = http.client.HTTPConnection("127.0.0.1", kept_server.port, timeout=10.0)
    before = len(kept_server.engine.report().records)
    ids = []
    try:
        for stream in (False, True):
            body = {"input_tokens": 1, "max_new_tokens": 2, "stream": stream}
            connection.request("POST", "/v1/generate", json.dumps(body))
            response = connection.getresponse()
            payload = response.read()
            ids.append(response.headers["X-Request-Id"])
            if not stream:
                assert json.loads(payload)["request_id"] == ids[-1]
    finally:
        connection.close()
    assert ids == [record.request_id for record in kept_server.engine.report().records[before:]]
    assert len(set(ids)) == 2


def _count_connections(monkeypatch):
    """Wrap ``LiveServer.process_request_thread``: one (server, handler thread) per connection."""
    accepted = []
    handle = gateway.LiveServer.process_request_thread

    def counting(self, request, client_address):
        accepted.append((self, threading.current_thread()))
        handle(self, request, client_address)

    monkeypatch.setattr(gateway.LiveServer, "process_request_thread", counting)
    return accepted


def test_bench_keeps_one_connection_per_endpoint_and_closes_it(monkeypatch):
    accepted = _count_connections(monkeypatch)
    # Each request's connection dict, kept alive here so that only bench's close can end it.
    dicts = []
    stream_request = gateway._stream_request

    def keeping(endpoint, *args):
        dicts.append(args[-1])
        return stream_request(endpoint, *args)

    monkeypatch.setattr(gateway, "_stream_request", keeping)
    servers = [start_server(_FAST, port=0) for _ in range(3)]
    try:
        report = bench(ReplicaSet(endpoints=tuple(s.url for s in servers)), _bench_workload())
    finally:
        for server in servers:
            server.stop()
    assert report.summary["failure_count"] == 0
    assert len(dicts) > 3 * 3 and all(d is dicts[0] for d in dicts)
    # Per endpoint: the user's one kept connection, then the engine-echo fetch's.
    assert [sum(owner is server for owner, _ in accepted) for server in servers] == [2, 2, 2]
    for _, thread in accepted:
        thread.join(timeout=5.0)  # under the handler's 10 s idle timeout
        assert not thread.is_alive()


def test_a_dropped_connection_costs_one_failure_then_reconnects(monkeypatch, kept_server):
    accepted = _count_connections(monkeypatch)
    handle_post = _GatewayHandler.do_POST
    posts = itertools.count(1)

    def dropping(self):
        handle_post(self)
        if next(posts) == 2:
            self.close_connection = True  # the reply did not say so

    monkeypatch.setattr(_GatewayHandler, "do_POST", dropping)
    report = bench(ReplicaSet(endpoints=(kept_server.url,)), _bench_workload())
    summary = report.summary
    assert summary["failure_count"] == 1
    assert summary["completed"] == summary["submitted"] - 1 >= 3
    assert len(accepted) == 3  # the first connection, the reconnect and the engine-echo fetch


# The default latency model made 10x faster, as the live-stream benchmark runs it.
_FAST_10X = EngineConfig(**{
    name: getattr(EngineConfig(), name) / 10.0
    for name in ("t_download_ms", "t_disk_to_cpu_ms", "t_cpu_to_gpu_ms", "decode_base_ms",
                 "decode_per_seq_ms", "prefill_base_ms", "prefill_per_token_ms",
                 "switch_overhead_ms")
})


def test_a_kept_connection_does_not_hold_the_first_token_for_a_delayed_ack():
    """Nagle's algorithm with the client's delayed ACK would add about 40 ms."""
    handle = start_server(_FAST_10X, port=0)
    connections = {}
    ttft = []
    origin = time.monotonic()
    try:
        for i in range(10):
            record = gateway._stream_request(
                handle.url, BASE_ADAPTER, 1, 1, f"r{i}", origin, connections
            )
            ttft.append(record.first_token_ms - record.submit_ms)
        assert len(connections) == 1
    finally:
        for connection in connections.values():
            connection.close()
        handle.stop()
    model = prefill_time(_FAST_10X, 1) + decode_gap(_FAST_10X, 1)
    assert statistics.median(ttft) < model + 10.0


_RAW_REQUEST = st.builds(
    lambda method, path, version, headers, body, cut: (
        b"%s %s %s\r\n%s\r\n%s" % (method, path, version, b"".join(headers), body)
    )[:cut],
    st.sampled_from([b"GET", b"POST", b"PUT", b"HEAD", b"G\x00T"]),
    st.sampled_from([b"/v1/generate", b"/healthz", b"/v1/metrics", b"/nowhere", b"*"]),
    st.sampled_from([b"HTTP/1.1", b"HTTP/1.0", b"HTTP/2.0", b"HTTP/x"]),
    st.lists(st.sampled_from([
        b"Host: x\r\n", b"Content-Length: 2\r\n", b"Content-Length: 40\r\n",
        b"Content-Length: -1\r\n", b"Content-Length: 99999999\r\n",
        b"Transfer-Encoding: chunked\r\n", b"Connection: close\r\n",
        b"Connection: keep-alive\r\n", b"Expect: 100-continue\r\n", b"\xff: \xfe\r\n",
    ]), max_size=4),
    st.one_of(
        st.binary(max_size=64),
        st.builds(
            lambda n, stream: json.dumps(
                {"input_tokens": 1, "max_new_tokens": n, "stream": stream}).encode(),
            st.integers(-1, 3), st.booleans(),
        ),
    ),
    st.integers(0, 400),
)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(_RAW_REQUEST, min_size=1, max_size=2))
def test_raw_request_bytes_are_answered_or_closed(kept_server, capfd, requests):
    """One or two requests, each possibly cut short, on one connection.

    The reply's form is http.server's (a request it reads as HTTP/0.9 gets a
    reply without a status line), so the property is the close and a server
    that still answers.
    """
    _exchange(kept_server.port, b"".join(requests))  # a timeout raises
    assert _exchange(kept_server.port, b"GET /healthz HTTP/1.0\r\n\r\n").endswith(b"\r\n\r\nok")
    assert capfd.readouterr().err == ""
