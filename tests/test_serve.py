"""End-to-end tests of the repro.serve measurement service.

The headline test drives a real server on an ephemeral port through
:class:`repro.serve.ServeClient`: 32 concurrent identical
latency-matrix requests must trigger exactly one underlying
computation, return byte-identical responses, leave ``/metricz``
consistent with the traffic, and a saturated admission budget must
produce fast 429 rejections.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.serve import ServeClient, serve_in_thread

#: Small-but-not-instant request: ~8 SM rows keep the computation long
#: enough (~150 ms) that 32 simultaneous requests overlap it.
HOT_PARAMS = {"gpu": "V100", "seed": 0, "sms": list(range(8)),
              "samples": 1}

CONCURRENCY = 32


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    cache_dir = tmp_path_factory.mktemp("serve-cache")
    with serve_in_thread(jobs=1, cache_dir=cache_dir,
                         max_inflight=1) as srv:
        yield srv


@pytest.fixture(scope="module")
def client(server):
    c = ServeClient(port=server.port)
    c.wait_healthy()
    return c


def _counters(client) -> dict:
    return client.metricz().json["counters"]


def test_concurrent_identical_requests_coalesce(server, client):
    barrier = threading.Barrier(CONCURRENCY)
    replies = [None] * CONCURRENCY

    def fire(i: int) -> None:
        c = ServeClient(port=server.port)
        barrier.wait()
        replies[i] = c.experiment("latency-matrix", **HOT_PARAMS)

    threads = [threading.Thread(target=fire, args=(i,))
               for i in range(CONCURRENCY)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)

    assert all(r is not None and r.status == 200 for r in replies)
    # byte-identical responses no matter which path served them
    assert len({r.body for r in replies}) == 1

    m = _counters(client)
    # one underlying computation for all 32 requests
    assert m["computations"] == 1
    assert m["requests"]["latency-matrix"] == CONCURRENCY
    # every non-leader either joined the flight or hit the cache
    assert m["coalesced"] + m["cache_hits"] == CONCURRENCY - 1
    assert m["rejected"] == 0 and m["errors"] == 0
    assert m["responses"]["200"] >= CONCURRENCY

    # the shared value is the actual experiment result
    value = replies[0].value()
    assert value["gpu"] == "V100"
    assert len(value["matrix"]) == len(HOT_PARAMS["sms"])
    assert value["min"] > 0


def test_repeat_request_is_a_cache_hit(client):
    before = _counters(client)
    reply = client.experiment("latency-matrix", **HOT_PARAMS)
    after = _counters(client)
    assert reply.status == 200
    assert after["computations"] == before["computations"]
    assert after["cache_hits"] == before["cache_hits"] + 1


def test_backpressure_rejects_with_429(server, client):
    """With max_inflight=1, a second distinct computation gets a 429."""
    before = _counters(client)
    slow_replies = []

    def slow() -> None:
        slow_replies.append(ServeClient(port=server.port).experiment(
            "latency-matrix", gpu="V100", seed=7, samples=1))

    thread = threading.Thread(target=slow)
    thread.start()
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        if client.healthz().json["inflight_computations"] >= 1:
            break
        time.sleep(0.005)
    else:
        pytest.fail("slow computation never became visible in-flight")

    rejected = client.experiment("latency-matrix", gpu="V100", seed=8,
                                 samples=1)
    thread.join(timeout=120)

    assert rejected.status == 429
    assert rejected.json["limit"] == 1
    assert slow_replies[0].status == 200
    after = _counters(client)
    assert after["rejected"] == before["rejected"] + 1
    # the rejection did not consume a computation
    assert after["computations"] == before["computations"] + 1


def test_metricz_latency_digest_populated(client):
    latency = client.metricz().json["latency"]
    assert latency["request"]["count"] > 0
    assert latency["compute"]["count"] >= 1
    assert latency["request"]["p99_ms"] >= latency["request"]["p50_ms"]
    assert latency["compute"]["max_ms"] > 0


def test_identical_params_different_spelling_share_one_computation(client):
    """Omitted params and explicit defaults hash to the same key."""
    before = _counters(client)
    a = client.experiment("latency-matrix", **HOT_PARAMS)
    b = client.experiment("latency-matrix", samples=1, seed=0,
                          sms=list(range(8)), gpu="V100")
    after = _counters(client)
    assert a.body == b.body
    assert after["computations"] == before["computations"]


def test_healthz_reports_shape(client):
    health = client.healthz().json
    assert health["status"] == "ok"
    assert health["experiments"] == 9
    assert health["inflight_computations"] == 0


# ------------------------------------------------------------- Backoff

def test_backoff_schedule_grows_and_clips():
    from repro.serve.client import Backoff
    schedule = Backoff(initial_s=0.01, max_s=0.05, multiplier=2.0,
                       jitter=0.0)
    delays = schedule.delays()
    observed = [next(delays) for _ in range(5)]
    assert observed == [0.01, 0.02, 0.04, 0.05, 0.05]


def test_backoff_jitter_is_bounded_and_seeded():
    from repro.serve.client import Backoff
    schedule = Backoff(initial_s=0.1, max_s=0.1, jitter=0.5, seed=7)
    first = [next(schedule.delays()) for _ in range(3)]
    # seeded: every fresh stream starts identically
    assert first[0] == first[1] == first[2]
    stream = schedule.delays()
    for _ in range(50):
        delay = next(stream)
        assert 0.05 <= delay <= 0.15


def test_backoff_rejects_bad_config():
    import pytest as _pytest
    from repro.serve.client import Backoff
    for kwargs in ({"initial_s": 0.0}, {"multiplier": 0.5},
                   {"jitter": 1.0}, {"initial_s": 1.0, "max_s": 0.5}):
        with _pytest.raises(ValueError):
            Backoff(**kwargs)


def test_wait_healthy_respects_deadline():
    from repro.serve.client import Backoff, ServeClient, ServeClientError
    # a port with nothing listening: wait_healthy must give up on time
    unreachable = ServeClient(port=1, timeout=0.05)
    start = time.monotonic()
    with pytest.raises(ServeClientError, match="not healthy"):
        unreachable.wait_healthy(
            deadline_s=0.2,
            backoff=Backoff(initial_s=0.01, max_s=0.05, seed=1))
    assert time.monotonic() - start < 2.0


def _group_alive(pgid: int) -> bool:
    import os
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    return True


def test_sigterm_drains_and_leaves_nothing_behind(tmp_path):
    """``repro serve`` on SIGTERM: a clean drain, like SIGINT.

    The pool child is forked before the listener binds, so it holds no
    client connection (the first reply reaches EOF) and no listening
    socket; the drain then reaps it, so the process group empties and
    the port can be bound again.
    """
    import os
    import re
    import signal
    import socket
    import subprocess
    import sys

    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    process = subprocess.Popen(
        [sys.executable, "-u", "-m", "repro.cli", "serve", "--port", "0",
         "--cache", str(tmp_path / "cache")],
        stdout=subprocess.PIPE, text=True, env=env, start_new_session=True)
    pgid = process.pid
    try:
        banner = process.stdout.readline()
        match = re.search(r"http://[\d.]+:(\d+)", banner)
        assert match, f"no listen banner, got: {banner!r}"
        port = int(match.group(1))
        body = b'{"gpu":"V100","sms":[0],"samples":1}'
        with socket.create_connection(("127.0.0.1", port),
                                      timeout=15) as sock:
            sock.sendall(b"POST /v1/experiments/latency-matrix HTTP/1.1\r\n"
                         b"Content-Length: " + str(len(body)).encode()
                         + b"\r\n\r\n" + body)
            reply = b""
            while True:                 # socket.timeout here = no EOF
                chunk = sock.recv(65536)
                if not chunk:
                    break
                reply += chunk
        assert reply.startswith(b"HTTP/1.1 200 ")

        process.send_signal(signal.SIGTERM)
        assert process.wait(timeout=60) == 0
        deadline = time.monotonic() + 10
        while _group_alive(pgid) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not _group_alive(pgid), "a server process outlived SIGTERM"
        with socket.socket() as probe:
            probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            probe.bind(("127.0.0.1", port))
    finally:
        if _group_alive(pgid):
            os.killpg(pgid, signal.SIGKILL)
        process.wait(timeout=30)
        process.stdout.close()
