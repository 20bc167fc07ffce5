"""The served path: ``python -m repro serve`` as a subprocess.

One *lifecycle* is one set-up sample plus one batch:

1. a probe process imports the simulator and generates the in-process
   paths' traces cold (see ``inproc.probe``);
2. a fresh server starts on an empty benchmark-private workspace and
   trace cache, with ``--workers`` = nproc and the process executor;
   its bound port is read from the ``listening on`` line.  A warm-up
   run spawns the worker pool and the batch's scenarios are built;
3. the batch: POST ``/v1/runs`` with eight distinct gemm points, then
   ``?since=`` long-polls until the run is terminal (``batch_s``);
4. closed-loop GETs of the completed run, served from memory;
5. a restart on the same workspace, and the same GET loop against the
   archived run, which is now read from disk.

One client keeps one request in flight and opens a fresh
connection per request, like the repo's stdlib client.
"""

from __future__ import annotations

import http.client
import json
import os
import queue
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import config
from goldens import Checker, digest
from spans import Tracer

LISTENING = re.compile(r"listening on http://([^:\s]+):(\d+)")
TERMINAL = ("done", "failed", "cancelled")
COUNTERS = ("points_executed", "points_deduped", "workspace_writes",
            "workspace_hits", "workers_recycled", "workers_crashed")


class Server:
    """One ``repro serve`` process and a fresh-connection client."""

    def __init__(self, root: Path, env: Dict[str, str], workspace: Path,
                 cache_dir: Path, workers: int,
                 tracer: Optional[Tracer]) -> None:
        self.cmd = [sys.executable, "-m", "repro", "serve",
                    "--host", "127.0.0.1", "--port", "0",
                    "--workers", str(workers), "--executor", "process",
                    "--workspace", str(workspace),
                    "--cache-dir", str(cache_dir)]
        self.root = root
        self.env = env
        self.tracer = tracer
        self.proc: Optional[subprocess.Popen] = None
        self.port: Optional[int] = None
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self._reader: Optional[threading.Thread] = None
        #: Pool worker pids seen in /debug/state (reaped after stop).
        self.worker_pids: List[int] = []

    def start(self, timeout: float = 60.0) -> None:
        """Spawn the server and wait for its ``listening on`` line."""
        self.proc = subprocess.Popen(
            self.cmd, cwd=str(self.root), env=self.env,
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True,
            # A shell may start the benchmark with SIGINT ignored, and
            # an ignored signal stays ignored across exec: restore the
            # default so stop() can interrupt the server cleanly.
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL))
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()
        deadline = time.monotonic() + timeout
        while self.port is None:
            try:
                line = self._lines.get(
                    timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                line = None
            if line is None:
                raise RuntimeError("server did not report its port")
            match = LISTENING.search(line)
            if match:
                self.port = int(match.group(2))

    def _drain(self) -> None:
        # Keeps reading after the port line so the pipe never fills.
        for line in self.proc.stderr:
            self._lines.put(line)
        self._lines.put(None)

    def stop(self) -> None:
        """Interrupt, then escalate; always waits for the exit.  Pool
        workers that outlive a killed server are killed too."""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        for pid in self.worker_pids:
            for _ in range(200):
                if not _running(pid):
                    break
                time.sleep(0.05)
            else:
                os.kill(pid, signal.SIGKILL)
        if self._reader is not None:
            self._reader.join(timeout=10)

    def request(self, method: str, path: str, body=None,
                run: Optional[str] = None) -> Tuple[int, bytes, float]:
        """One request on a fresh connection: (status, body, seconds)."""
        payload = json.dumps(body).encode() if body is not None else None
        start = time.perf_counter()
        conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=120)
        try:
            conn.request(method, path, body=payload,
                         headers={"Content-Type": "application/json"})
            resp = conn.getresponse()
            data = resp.read()
            status = resp.status
        finally:
            conn.close()
        end = time.perf_counter()
        if self.tracer is not None:
            self.tracer.add("serve.http", start, end, method=method,
                            route=path.split("?")[0], run=run,
                            status=status, bytes=len(data))
        return status, data, end - start

    def rss_kb(self) -> int:
        """Peak RSS (VmHWM) of the server plus its worker processes;
        also records the worker pids that :meth:`stop` makes sure of."""
        status, data, _ = self.request("GET", "/debug/state")
        if status == 200:
            self.worker_pids = [w["pid"] for w in
                                json.loads(data)["pool"]["workers"]
                                if w.get("pid")]
        pids = [self.proc.pid] + self.worker_pids
        total = 0
        for pid in pids:
            try:
                text = Path(f"/proc/{pid}/status").read_text()
            except OSError:
                continue
            match = re.search(r"VmHWM:\s+(\d+)", text)
            if match:
                total += int(match.group(1))
        return total


def _running(pid: int) -> bool:
    """Whether ``pid`` exists and is not a zombie."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


class Client:
    """Checked calls: every request is one attempted operation."""

    def __init__(self, server: Server, checker: Checker) -> None:
        self.server = server
        self.checker = checker

    def call(self, method: str, path: str, body=None,
             run: Optional[str] = None) -> Tuple[Optional[dict], float]:
        try:
            status, data, seconds = self.server.request(method, path, body,
                                                        run)
        except (OSError, http.client.HTTPException) as exc:
            self.checker.fail(f"{method} {path}: {exc}")
            return None, 0.0
        if not self.checker.equal(200 <= status < 300, True,
                                  f"{method} {path} -> HTTP {status}"):
            return None, seconds
        return json.loads(data), seconds

    def wait_health(self, timeout: float = 60.0) -> None:
        deadline = time.monotonic() + timeout
        while True:
            try:
                status, _, _ = self.server.request("GET", "/health")
            except OSError:
                status = 0
            if status == 200:
                return
            if time.monotonic() > deadline:
                raise RuntimeError("server never became healthy")
            time.sleep(0.05)

    def build(self, n: int, tiles) -> Tuple[Dict[int, str], List[float]]:
        hashes, latencies = {}, []
        for tile in tiles:
            doc, seconds = self.call("POST", "/v1/scenarios",
                                     {"kernel": "gemm", "n": n,
                                      "tile": tile})
            latencies.append(seconds)
            if doc is not None:
                hashes[tile] = doc["scenario"]
        return hashes, latencies

    def run_to_end(self, points: List[dict]) -> Tuple[Optional[str], float,
                                                     float]:
        """POST a run and long-poll it to a terminal state."""
        t0 = time.perf_counter()
        doc, post_s = self.call("POST", "/v1/runs", {"points": points})
        if doc is None:
            return None, post_s, time.perf_counter() - t0
        run_id = doc["run"]
        since = 0
        while True:
            doc, _ = self.call("GET",
                               f"/v1/runs/{run_id}?since={since}&wait=25",
                               run=run_id)
            if doc is None:
                break
            since = doc["next"]
            if doc["status"] in TERMINAL:
                break
        return run_id, post_s, time.perf_counter() - t0

    def get_loop(self, run_id: str, count: int, expect_bytes: int
                 ) -> List[float]:
        latencies = []
        for _ in range(count):
            try:
                status, data, seconds = self.server.request(
                    "GET", f"/v1/runs/{run_id}", run=run_id)
            except (OSError, http.client.HTTPException) as exc:
                self.checker.fail(f"GET {run_id}: {exc}")
                continue
            if self.checker.equal((status, len(data)), (200, expect_bytes),
                                  f"GET {run_id} status/bytes"):
                latencies.append(seconds)
        return latencies

    def debug_counters(self) -> Dict[str, int]:
        doc, _ = self.call("GET", "/debug/state")
        serve = doc["serve"] if doc is not None else {}
        return {k: serve.get(k, 0) for k in COUNTERS}


def check_documents(checker: Checker, run_doc: Optional[dict],
                    expected: int, label: str) -> Dict[str, str]:
    """Each served document against the run_point goldens; returns the
    per-point stats digests (for the archived-read comparison)."""
    digests: Dict[str, str] = {}
    if run_doc is None:
        checker.fail(f"{label}: no run document")
        return digests
    checker.equal(run_doc.get("status"), "done", f"{label} status")
    documents = run_doc.get("documents") or {}
    checker.equal(len(documents), expected, f"{label} document count")
    for doc in documents.values():
        p = doc["manifest"]["point"]
        key = config.golden_key_sim(p["kernel"], p["n"], p["tile"],
                                    p["scale"])
        for system, snap in doc["stats"].items():
            checker.sim(key, system, snap["engine"]["cycles"], snap,
                        f"{label} served")
        digests[key] = digest(doc["stats"])
    return digests


def point_exec_s(run_doc: Optional[dict]) -> float:
    """Sum of the manifest phase walls of a run's documents."""
    if run_doc is None:
        return 0.0
    return sum(phase["wall_s"]
               for doc in (run_doc.get("documents") or {}).values()
               for phase in doc["manifest"]["phases"].values())


class ServePath:
    """Served lifecycles (see module doc)."""

    def __init__(self, root: Path, env: Dict[str, str], work: Path,
                 profile: dict, workers: int, checker: Checker,
                 tracer: Optional[Tracer], probe) -> None:
        self.root = root
        self.env = env
        self.work = work
        self.profile = profile
        self.workers = workers
        self.checker = checker
        self.tracer = tracer
        self.probe = probe
        self.lifecycles: List[dict] = []

    def _server(self, index: int) -> Server:
        env = dict(self.env)
        cache = self.work / f"serve-{index}" / "traces"
        env["REPRO_TRACE_CACHE"] = str(cache)
        return Server(self.root, env, self.work / f"serve-{index}" / "ws",
                      cache, self.workers, self.tracer)

    def lifecycle(self) -> dict:
        index = len(self.lifecycles)
        out: Dict[str, object] = {"probe_s": self.probe(index)}
        serve = self.profile["serve"]
        server = self._server(index)
        client = Client(server, self.checker)
        try:
            t0 = time.perf_counter()
            server.start()
            client.wait_health()
            warm = serve["warm"]
            w0 = time.perf_counter()
            hashes, _ = client.build(warm["n"], warm["tiles"])
            run_id, _, _ = client.run_to_end(
                [{"scenario": h, "config": {}} for h in hashes.values()])
            warm_doc, _ = client.call("GET", f"/v1/runs/{run_id}")
            self.checker.equal((warm_doc or {}).get("status"), "done",
                               "warm-up run status")
            out["pool_warm_s"] = time.perf_counter() - w0
            hashes, build_lat = client.build(serve["n"], serve["tiles"])
            out["server_setup_s"] = time.perf_counter() - t0
            out["post_scenarios_s"] = build_lat
            # A fixed submission order: on a pool of a few workers the
            # order sets how the points pack onto them, so a shuffled
            # batch would time a different schedule on every seed.
            points = [{"scenario": hashes[tile], "config": {"scale": scale}}
                      for _, tile, scale in config.serve_points(self.profile)
                      if tile in hashes]
            run_id, post_s, batch_s = client.run_to_end(points)
            out.update(run=run_id, post_runs_s=post_s, batch_s=batch_s)
            run_doc, _ = client.call("GET", f"/v1/runs/{run_id}",
                                     run=run_id)
            out["digests"] = check_documents(
                self.checker, run_doc, len(points), f"batch {index}")
            out["point_exec_s"] = point_exec_s(run_doc)
            body = json.dumps(run_doc, sort_keys=True).encode() + b"\n"
            out["get_run_bytes"] = len(body)
            out["get_s"] = client.get_loop(run_id, serve["gets"], len(body))
            out["counters"] = client.debug_counters()
            out["rss_kb"] = server.rss_kb()
        finally:
            server.stop()
        self._read_archived(index, out)
        self.lifecycles.append(out)
        return out

    def _read_archived(self, index: int, out: dict) -> None:
        """Restart on this lifecycle's workspace; GET the run from disk."""
        server = self._server(index)
        client = Client(server, self.checker)
        run_id = out["run"]
        try:
            server.start()
            client.wait_health()
            doc, _ = client.call("GET", f"/v1/runs/{run_id}", run=run_id)
            digests = check_documents(self.checker, doc, len(out["digests"]),
                                      f"archived run {index}")
            self.checker.equal(digests, out["digests"],
                               "archived documents vs served documents")
            body = json.dumps(doc, sort_keys=True).encode() + b"\n"
            out["archived_get_s"] = client.get_loop(
                run_id, self.profile["serve"]["gets"], len(body))
            out["archived_counters"] = client.debug_counters()
        finally:
            server.stop()


class Probe:
    """Times one set-up probe process per call (fresh, empty trace
    cache); the first probe's cache stays for the in-process paths."""

    def __init__(self, root: Path, env: Dict[str, str], work: Path,
                 workload: str, profile_name: str, checker: Checker) -> None:
        self.root = root
        self.env = env
        self.work = work
        self.args = ["--workload", workload, "--profile", profile_name]
        self.checker = checker
        self.first_cache: Optional[Path] = None

    def __call__(self, index: int) -> float:
        cache = self.work / f"probe-{index}"
        cmd = [sys.executable, str(Path(__file__).with_name("run.py")),
               "--child", "probe", "--cache", str(cache), *self.args]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=str(self.root), env=self.env,
                              stdin=subprocess.DEVNULL,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True,
                              timeout=170)
        elapsed = time.perf_counter() - t0
        self.checker.equal(proc.returncode, 0, f"probe {index} exit "
                           f"({proc.stderr.strip()[-300:]})")
        if self.first_cache is None:
            self.first_cache = cache
        return elapsed
