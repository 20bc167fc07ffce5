"""Shared helpers for the serve test suites."""

from __future__ import annotations

import http.client
import json
import threading
import time

from repro.serve.app import serve


def boot_server(**kwargs):
    """A serving server plus its serve_forever thread."""
    kwargs.setdefault("cache_dir", "off")
    srv = serve(port=0, **kwargs)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    return srv, thread


def stop_server(srv, thread):
    srv.shutdown()
    srv.close()
    thread.join(timeout=10)


def call(server, method, path, body=None, raw=None):
    """One request against an in-process server: ``(status, doc)``.

    ``raw`` sends those bytes as the body verbatim (junk-body tests).
    """
    host, port = server.server_address[:2]
    payload = raw
    if payload is None and body is not None:
        payload = json.dumps(body).encode()
    conn = http.client.HTTPConnection(host, port, timeout=60)
    try:
        conn.request(method, path, body=payload,
                     headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        data = resp.read()
        status = resp.status
    finally:
        conn.close()
    return status, json.loads(data)


def kernel_scenario(server, kernel="mvt", n=48, tile=16):
    """POST one kernel scenario; returns its hash."""
    status, doc = call(server, "POST", "/v1/scenarios",
                       {"kind": "kernel", "kernel": kernel,
                        "n": n, "tile": tile})
    assert status in (200, 201), doc
    return doc["scenario"]


def submit_run(server, scenario, configs=None, **extra):
    body = {"scenario": scenario, "configs": configs or [{}]}
    body.update(extra)
    status, doc = call(server, "POST", "/v1/runs", body)
    assert status == 202, doc
    return doc["run"]


def wait_run(server, run_id, timeout=120.0):
    """Poll one run to a terminal state (and drained ``running``
    count -- a cancelled in-flight point finishes asynchronously);
    returns the final document."""
    deadline = time.monotonic() + timeout
    doc = {"status": "missing"}
    while time.monotonic() < deadline:
        status, doc = call(server, "GET", f"/v1/runs/{run_id}")
        assert status == 200, doc
        if doc["status"] in ("done", "failed", "cancelled") and (
                doc["points"]["running"] == 0) and (
                "out_dir" not in doc or "written" in doc
                or doc["status"] != "done"):
            return doc
        time.sleep(0.02)
    raise AssertionError(f"{run_id} still {doc['status']!r} "
                         f"after {timeout}s")
