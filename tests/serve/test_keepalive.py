"""Keep-alive latency: replies must not stall on Nagle + delayed ACK.

A reply written as two small segments (headers, then body) waits for
the client's delayed ACK of the first before the second leaves --
about 40 ms per request on Linux.  Twenty GETs on one connection then
take at least 800 ms; with the socket's Nagle algorithm off they take
a few milliseconds.
"""

from __future__ import annotations

import http.client
import json
import time

import pytest

from .conftest import boot_server, stop_server

GETS = 20
#: Well under the GETS x 40 ms the stall costs, well over a slow host's
#: cost of twenty /health replies.
BUDGET_S = 0.4


@pytest.fixture
def server():
    srv, thread = boot_server(workers=1)
    yield srv
    stop_server(srv, thread)


def test_keepalive_gets_do_not_stall(server):
    host, port = server.server_address[:2]
    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        conn.request("GET", "/health")        # connect outside the clock
        conn.getresponse().read()
        start = time.perf_counter()
        for _ in range(GETS):
            conn.request("GET", "/health")
            resp = conn.getresponse()
            doc = json.loads(resp.read())
            assert resp.status == 200, doc
        elapsed = time.perf_counter() - start
    finally:
        conn.close()
    assert elapsed < BUDGET_S, (
        f"{GETS} keep-alive GETs took {elapsed * 1000:.0f} ms")
