"""The disk-backed artifact workspace: persistence, restart recovery,
byte identity, TTL + size eviction, and the resumable-run story.

HTTP-level tests here boot the thread executor -- workspace behavior
is executor-independent and in-process execution keeps them fast; the
pool suite covers the process side.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.serve.workspace import ArtifactWorkspace, _dump_json

from .conftest import (boot_server, call, kernel_scenario, stop_server,
                       submit_run, wait_run)

H1 = "a" * 16
H2 = "b" * 16
H3 = "c" * 16


class TestWorkspaceUnits:
    """ArtifactWorkspace in isolation."""

    def test_point_roundtrip_first_write_wins(self, tmp_path):
        ws = ArtifactWorkspace(tmp_path)
        assert ws.save_point((H1, H2), {"v": 1}) is True
        assert ws.save_point((H1, H2), {"v": 2}) is False
        assert ws.load_point((H1, H2)) == {"v": 1}
        assert ws.load_point((H1, H3)) is None

    def test_invalid_keys_never_touch_the_filesystem(self, tmp_path):
        ws = ArtifactWorkspace(tmp_path)
        for bad in (("../../etc/passwd", H2), (H1, "UPPER-nothex!!"),
                    ("short", H2), (H1, H2 + "00")):
            assert ws.save_point(bad, {"v": 1}) is False
            assert ws.load_point(bad) is None
        assert ws.load_run("../oops") is None
        ws.save_run({"run": "../oops", "status": "done"})
        assert list(tmp_path.rglob("*oops*")) == []

    def test_point_bytes_are_the_serve_document_format(self, tmp_path):
        ws = ArtifactWorkspace(tmp_path)
        doc = {"b": [1, 2], "a": {"nested": True}}
        ws.save_point((H1, H2), doc)
        raw = (tmp_path / "points" / f"{H1}_{H2}.json").read_bytes()
        assert raw == _dump_json(doc)
        assert raw == (json.dumps(doc, sort_keys=True, indent=2)
                       + "\n").encode()

    def test_run_records_and_id_sequence(self, tmp_path):
        ws = ArtifactWorkspace(tmp_path)
        ws.save_run({"run": "run-000007", "status": "done",
                     "point_keys": [[H1, H2]]})
        ws.save_run({"run": "run-000002", "status": "done",
                     "point_keys": []})
        assert ws.run_ids() == ["run-000002", "run-000007"]
        assert ws.max_run_number() == 7
        assert ws.load_run("run-000007")["status"] == "done"

    def test_ttl_eviction_takes_runs_and_their_points(self, tmp_path):
        ws = ArtifactWorkspace(tmp_path, ttl_s=100.0)
        ws.save_point((H1, H2), {"v": 1})
        ws.save_run({"run": "run-000001", "status": "done",
                     "point_keys": [[H1, H2]]})
        now = time.time()
        assert ws.evict(now=now) == 0
        assert ws.evict(now=now + 1000) == 2  # record + its point
        assert ws.load_run("run-000001") is None
        assert ws.load_point((H1, H2)) is None

    def test_shared_points_survive_partial_eviction(self, tmp_path):
        ws = ArtifactWorkspace(tmp_path, ttl_s=100.0)
        ws.save_point((H1, H2), {"v": 1})
        ws.save_run({"run": "run-000001", "status": "done",
                     "point_keys": [[H1, H2]]})
        old = time.time() - 1000
        path = tmp_path / "runs" / "run-000001.json"
        os.utime(path, (old, old))
        # A younger run references the same point document.
        ws.save_run({"run": "run-000002", "status": "done",
                     "point_keys": [[H1, H2]]})
        assert ws.evict() == 1  # only the expired record
        assert ws.load_point((H1, H2)) == {"v": 1}
        assert ws.load_run("run-000002") is not None

    def test_size_bound_evicts_oldest_first(self, tmp_path):
        ws = ArtifactWorkspace(tmp_path, ttl_s=1e9, limit_bytes=1)
        for i, scenario in enumerate((H1, H2), start=1):
            ws.save_point((scenario, H3), {"v": i, "pad": "x" * 256})
            ws.save_run({"run": f"run-{i:06d}", "status": "done",
                         "point_keys": [[scenario, H3]]})
            when = time.time() - 100 + i
            path = tmp_path / "runs" / f"run-{i:06d}.json"
            os.utime(path, (when, when))
        ws.evict()
        # Nothing fits in 1 byte: everything goes, oldest first (both
        # here); the workspace never errors on an aggressive bound.
        assert ws.run_ids() == []
        assert ws.load_point((H1, H3)) is None

    def test_unreferenced_scenarios_need_ttl_expiry_too(self, tmp_path):
        ws = ArtifactWorkspace(tmp_path, ttl_s=100.0)
        ws.save_scenario({"scenario": H1, "kind": "kernel"})
        # Freshly built, no run yet: must survive eviction.
        assert ws.evict() == 0
        assert [r["scenario"] for r in ws.load_scenarios()] == [H1]
        path = tmp_path / "scenarios" / f"{H1}.json"
        old = time.time() - 1000
        os.utime(path, (old, old))
        assert ws.evict() == 1
        assert ws.load_scenarios() == []


class TestWorkspacePersistence:
    """A live server writing through to its workspace."""

    def test_completed_points_persist_byte_identical(self, tmp_path):
        srv, thread = boot_server(workspace=str(tmp_path))
        try:
            h = kernel_scenario(srv)
            doc = wait_run(srv, submit_run(srv, h, [{}, {"scale": 2}]))
            assert doc["status"] == "done"
            points = sorted((tmp_path / "points").glob("*.json"))
            assert len(points) == 2
            served = {  # config-hash -> served document
                d["manifest"]["serve"]["config_hash"]: d
                for d in doc["documents"].values()}
            for path in points:
                config = path.stem.split("_")[1]
                assert path.read_bytes() == _dump_json(served[config])
            # The scenario record landed too (rehydration source).
            assert (tmp_path / "scenarios" / f"{h}.json").exists()
        finally:
            stop_server(srv, thread)

    def test_resubmission_is_a_workspace_hit(self, tmp_path):
        srv, thread = boot_server(workspace=str(tmp_path))
        try:
            h = kernel_scenario(srv)
            wait_run(srv, submit_run(srv, h))
        finally:
            stop_server(srv, thread)
        srv, thread = boot_server(workspace=str(tmp_path))
        try:
            # The scenario rehydrated at boot: no rebuild on POST.
            status, doc = call(srv, "POST", "/v1/scenarios",
                               {"kind": "kernel", "kernel": "mvt",
                                "n": 48, "tile": 16})
            assert status == 200 and doc["created"] is False
            final = wait_run(srv, submit_run(srv, h))
            assert final["status"] == "done"
            _, state = call(srv, "GET", "/debug/state")
            assert state["serve"]["workspace_hits"] == 1
            assert state["serve"]["points_executed"] == 0
            # workspace_hits and points_deduped partition the
            # not-executed cases: disk restore is not memory dedup.
            assert state["serve"]["points_deduped"] == 0
        finally:
            stop_server(srv, thread)


class TestRestartRecovery:
    """Kill the server; a successor on the same --workspace serves
    everything the first one completed."""

    def test_archived_runs_served_after_restart(self, tmp_path):
        srv, thread = boot_server(workspace=str(tmp_path))
        try:
            h = kernel_scenario(srv)
            rid = submit_run(srv, h, [{}, {"scale": 2}])
            before = wait_run(srv, rid)
            assert before["status"] == "done"
        finally:
            stop_server(srv, thread)

        srv, thread = boot_server(workspace=str(tmp_path))
        try:
            _, listing = call(srv, "GET", "/v1/runs")
            assert rid in listing["archived"]
            status, after = call(srv, "GET", f"/v1/runs/{rid}")
            assert status == 200
            assert after["archived"] is True
            assert after["status"] == "done"
            assert after["names"] == before["names"]
            # Byte-identical: identical parsed documents, and the disk
            # bytes equal the canonical dump of what was served live.
            assert after["documents"] == before["documents"]
            for path in (tmp_path / "points").glob("*.json"):
                name = [n for n, d in before["documents"].items()
                        if path.stem.endswith(
                            d["manifest"]["serve"]["config_hash"])]
                assert len(name) == 1
                assert path.read_bytes() == _dump_json(
                    before["documents"][name[0]])
            # The id sequence resumes past everything persisted.
            rid2 = submit_run(srv, h, [{"scale": 4}])
            assert rid2 > rid
        finally:
            stop_server(srv, thread)

    def test_archived_run_on_a_retired_tier_still_serves(self, tmp_path):
        """A workspace holding a run recorded on the retired ``object``
        tier restarts and serves that run byte-identically; a new
        submission naming a retired tier is a clean 400."""
        from repro.serve.jobs import config_hash

        srv, thread = boot_server(workspace=str(tmp_path))
        try:
            h = kernel_scenario(srv)
            live = wait_run(srv, submit_run(srv, h, [{}]))
            assert live["status"] == "done"
        finally:
            stop_server(srv, thread)

        # Forge the run as an older server wrote it for the config
        # {"engine": "object"}: its own config hash, the override in
        # the serve block, env and trace provenance.
        ws = ArtifactWorkspace(tmp_path)
        record = ws.load_run(live["run"])
        name = record["names"][0]
        doc = json.loads(json.dumps(live["documents"][name]))
        key = [h, config_hash({"engine": "object", "scale": 32,
                               "llc_bytes": None, "bandwidth": 1.0,
                               "systems": ["baseline", "xmem"]})]
        manifest = doc["manifest"]
        manifest["serve"].update(config_hash=key[1], engine="object")
        manifest["env"]["REPRO_ENGINE"] = "object"
        manifest["trace"]["tier"] = "object"
        assert ws.save_point(tuple(key), doc)
        ws.save_run(dict(record, run="run-000002", point_keys=[key]))
        raw = (tmp_path / "points" / f"{key[0]}_{key[1]}.json").read_bytes()

        srv, thread = boot_server(workspace=str(tmp_path))
        try:
            status, after = call(srv, "GET", "/v1/runs/run-000002")
            assert status == 200
            assert after["archived"] is True
            assert after["status"] == "done"
            assert after["documents"] == {name: doc}
            assert _dump_json(after["documents"][name]) == raw
            status, err = call(srv, "POST", "/v1/runs",
                               {"scenario": h,
                                "configs": [{"engine": "analytical"}]})
            assert status == 400
            assert "['packed', 'vector']" in err["error"]
        finally:
            stop_server(srv, thread)

    def test_interrupted_run_is_cleanly_failed_and_resumable(
            self, tmp_path):
        srv, thread = boot_server(workspace=str(tmp_path))
        try:
            h = kernel_scenario(srv)
            done = wait_run(srv, submit_run(srv, h, [{}]))
            name_done = done["names"][0]
        finally:
            stop_server(srv, thread)

        # Forge what a mid-batch crash leaves behind: a non-terminal
        # record naming one completed point and one that never ran.
        ws = ArtifactWorkspace(tmp_path)
        record = ws.load_run("run-000001")
        key_done = record["point_keys"][0]
        ws.save_run({
            "run": "run-000002", "status": "running",
            "names": [name_done, "001_mvt_n48_t16.json"],
            "point_keys": [key_done, [H1, H2]],
            "states": ["done", "running"],
            "errors": {}, "created_at": record["created_at"],
            "updated_at": record["updated_at"],
        })

        srv, thread = boot_server(workspace=str(tmp_path))
        try:
            status, doc = call(srv, "GET", "/v1/runs/run-000002")
            assert status == 200
            assert doc["status"] == "failed"
            assert doc["points"]["done"] == 1
            assert doc["points"]["failed"] == 1
            assert "interrupted" in doc["errors"]["001_mvt_n48_t16.json"]
            # The completed point still serves from disk.
            assert name_done in doc["documents"]
            # Recovery: resubmit -- the finished point is a workspace
            # hit, only genuinely new work would execute.
            final = wait_run(srv, submit_run(srv, h, [{}]))
            assert final["status"] == "done"
            _, state = call(srv, "GET", "/debug/state")
            assert state["serve"]["workspace_hits"] == 1
            assert state["serve"]["points_executed"] == 0
        finally:
            stop_server(srv, thread)


class TestWorkspaceIntrospection:
    def test_debug_state_reports_usage(self, tmp_path):
        srv, thread = boot_server(workspace=str(tmp_path))
        try:
            h = kernel_scenario(srv)
            wait_run(srv, submit_run(srv, h))
            _, state = call(srv, "GET", "/debug/state")
            usage = state["workspace"]
            assert usage["dir"] == str(tmp_path)
            assert usage["points"]["files"] == 1
            assert usage["runs"]["files"] == 1
            assert usage["bytes"] > 0
            assert state["serve"]["workspace_writes"] == 1
        finally:
            stop_server(srv, thread)

    def test_no_workspace_means_null_and_no_archives(self):
        srv, thread = boot_server()
        try:
            _, state = call(srv, "GET", "/debug/state")
            assert state["workspace"] is None
            _, listing = call(srv, "GET", "/v1/runs")
            assert "archived" not in listing
            status, doc = call(srv, "GET", "/v1/runs/run-000099")
            assert status == 404
        finally:
            stop_server(srv, thread)
