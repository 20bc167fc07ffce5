"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["usecase1"])
        assert args.kernel == "gemm"
        assert args.n == 96

    def test_usecase2_args(self):
        args = build_parser().parse_args(
            ["usecase2", "--workload", "mcf", "--accesses", "5000"])
        assert args.workload == "mcf"
        assert args.accesses == 5000

    def test_sweep_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.kernels == "gemm"
        assert args.n == 96
        assert args.systems == "baseline,xmem"
        assert args.jobs is None


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "gemm" in out
        assert "lbm" in out

    def test_overheads(self, capsys):
        assert main(["overheads"]) == 0
        out = capsys.readouterr().out
        assert "AAM" in out
        assert "16 MB" in out

    def test_usecase1_unknown_kernel(self, capsys):
        assert main(["usecase1", "--kernel", "nope"]) == 2

    def test_usecase2_unknown_workload(self, capsys):
        assert main(["usecase2", "--workload", "nope"]) == 2

    def test_usecase1_small_run(self, capsys):
        rc = main(["usecase1", "--kernel", "mvt", "--n", "32",
                   "--tile", "16", "--scale", "16"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "XMem speedup" in out

    def test_usecase2_small_run(self, capsys):
        rc = main(["usecase2", "--workload", "sc",
                   "--accesses", "4000"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "baseline" in out and "ideal" in out

    def test_sweep_unknown_kernel(self, capsys):
        assert main(["sweep", "--kernels", "nope"]) == 2

    def test_sweep_unknown_system(self, capsys):
        assert main(["sweep", "--systems", "warp"]) == 2
        assert "choices" in capsys.readouterr().err

    def test_sweep_bad_tiles(self, capsys):
        assert main(["sweep", "--tiles", "8,abc"]) == 2
        assert "comma-separated integers" in capsys.readouterr().err

    def test_sweep_small_run(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
        rc = main(["sweep", "--kernels", "mvt", "--n", "32",
                   "--tiles", "8,32", "--jobs", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "mvt" in out
        assert "xmem speedup" in out


class TestStatsJsonAndDiff:
    """`sweep --stats-json` document schema and `repro diff` exits."""

    @pytest.fixture
    def run_dir(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "cache"))
        out = tmp_path / "run_a"
        rc = main(["sweep", "--kernels", "mvt", "--n", "32",
                   "--tiles", "8", "--jobs", "1",
                   "--stats-json", str(out)])
        assert rc == 0
        capsys.readouterr()
        return out

    def test_documents_written_with_schema(self, run_dir):
        import json

        docs = sorted(run_dir.glob("*.json"))
        assert docs, "no stats documents written"
        for path in docs:
            doc = json.loads(path.read_text())
            assert sorted(doc) == ["manifest", "stats"]
            assert "baseline" in doc["stats"]
            assert "xmem" in doc["stats"]
            # Flat group paths -> {counter: value} leaves.
            for system, snap in doc["stats"].items():
                for group, counters in snap.items():
                    assert isinstance(counters, dict), (system, group)

    def test_diff_identical_run_exits_zero(self, run_dir, capsys):
        assert main(["diff", str(run_dir), str(run_dir)]) == 0
        assert "zero deltas" in capsys.readouterr().out

    def test_diff_detects_delta_exits_one(self, run_dir, tmp_path,
                                          capsys):
        import json
        import shutil

        run_b = tmp_path / "run_b"
        shutil.copytree(run_dir, run_b)
        victim = sorted(run_b.glob("*.json"))[0]
        doc = json.loads(victim.read_text())
        system = sorted(doc["stats"])[0]
        group = sorted(doc["stats"][system])[0]
        counter = sorted(doc["stats"][system][group])[0]
        doc["stats"][system][group][counter] = 10**9
        victim.write_text(json.dumps(doc))
        assert main(["diff", str(run_dir), str(run_b)]) == 1
        out = capsys.readouterr().out
        assert f"{system}.{group}" in out

    def test_diff_missing_input_exits_two(self, run_dir, tmp_path,
                                          capsys):
        assert main(["diff", str(run_dir),
                     str(tmp_path / "nonexistent")]) == 2

    def test_diff_mismatched_documents_exit_two(self, run_dir, tmp_path,
                                                capsys):
        import shutil

        run_b = tmp_path / "run_b"
        shutil.copytree(run_dir, run_b)
        extra = run_b / "zz-extra.json"
        shutil.copy(sorted(run_b.glob("*.json"))[0], extra)
        assert main(["diff", str(run_dir), str(run_b)]) == 2
        assert "only in" in capsys.readouterr().err


class TestServeCommand:
    """`repro serve`: parser wiring (the server itself is tested in
    tests/serve/)."""

    def test_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 8642
        # None means "resolve from REPRO_JOBS at serve time".
        assert args.workers is None
        assert args.queue_limit == 64
        assert args.cache_dir is None
        assert args.executor == "process"
        assert args.recycle_after == 32
        assert args.workspace is None
        assert args.workspace_ttl == 604800.0
        assert args.workspace_limit_mb == 512
        assert args.verbose is False

    def test_parser_overrides(self):
        args = build_parser().parse_args(
            ["serve", "--port", "0", "--workers", "4",
             "--queue-limit", "8", "--cache-dir", "off",
             "--executor", "thread", "--recycle-after", "5",
             "--workspace", "/tmp/ws", "--workspace-ttl", "60",
             "--workspace-limit-mb", "1", "--verbose"])
        assert args.port == 0
        assert args.workers == 4
        assert args.queue_limit == 8
        assert args.cache_dir == "off"
        assert args.executor == "thread"
        assert args.recycle_after == 5
        assert args.workspace == "/tmp/ws"
        assert args.workspace_ttl == 60.0
        assert args.workspace_limit_mb == 1
        assert args.verbose is True

    def test_bind_failure_exits_two(self, capsys):
        import socket

        # Hold a port so the server cannot bind it.
        holder = socket.socket()
        holder.bind(("127.0.0.1", 0))
        holder.listen(1)
        port = holder.getsockname()[1]
        try:
            rc = main(["serve", "--port", str(port)])
        finally:
            holder.close()
        assert rc == 2
        assert "cannot bind" in capsys.readouterr().err


class TestFuzzCommand:
    """`repro fuzz`: exit codes, corpus, replay."""

    def test_parser_defaults(self):
        args = build_parser().parse_args(["fuzz"])
        assert args.cases == 200
        assert args.seed == 0
        assert args.length == 400
        assert args.lanes is None
        assert args.replay is None

    def test_clean_sweep_exits_zero(self, capsys):
        assert main(["fuzz", "--cases", "10", "--length", "60"]) == 0
        out = capsys.readouterr().out
        assert "all lanes agree" in out

    def test_unknown_lane_exits_two(self, capsys):
        assert main(["fuzz", "--lanes", "bogus"]) == 2
        assert "choices" in capsys.readouterr().err

    def test_nonpositive_cases_exits_two(self, capsys):
        assert main(["fuzz", "--cases", "0"]) == 2

    def test_divergence_exits_one_and_writes_corpus(self, capsys,
                                                    tmp_path):
        from repro.mem.replacement import LRUPolicy

        def broken_victim(self, set_idx, candidates):
            return max(candidates,
                       key=self._stamp[set_idx].__getitem__)

        corpus = tmp_path / "corpus"
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(LRUPolicy, "victim", broken_victim)
            rc = main(["fuzz", "--cases", "20", "--lanes", "cache",
                       "--length", "200", "--corpus", str(corpus)])
        assert rc == 1
        assert "diverging case" in capsys.readouterr().out
        assert sorted(corpus.glob("*.json"))

    def test_replay_fixed_corpus_exits_zero(self, capsys, tmp_path):
        from repro.mem.replacement import LRUPolicy

        def broken_victim(self, set_idx, candidates):
            return max(candidates,
                       key=self._stamp[set_idx].__getitem__)

        corpus = tmp_path / "corpus"
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(LRUPolicy, "victim", broken_victim)
            main(["fuzz", "--cases", "20", "--lanes", "cache",
                  "--length", "200", "--corpus", str(corpus)])
            capsys.readouterr()
            # Mutant still live: the reproducers must fail replay.
            assert main(["fuzz", "--replay", str(corpus)]) == 1
            capsys.readouterr()
        # Mutant reverted: the same corpus passes (regression mode).
        assert main(["fuzz", "--replay", str(corpus)]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_replay_missing_path_exits_two(self, capsys, tmp_path):
        assert main(["fuzz", "--replay",
                     str(tmp_path / "empty-dir")]) == 2


class TestCorunCliAudit:
    """`repro corun` error paths around --stats-json (ISSUE 9's CLI
    audit): every bad input is a clean exit-2 with a message, and a
    good run self-diffs to zero deltas."""

    def test_unknown_tenant_exits_two(self, capsys):
        assert main(["corun", "--tenants", "mcf,warpfield"]) == 2
        assert "unknown workloads" in capsys.readouterr().err

    def test_malformed_xmem_tenants_exits_two(self, capsys):
        assert main(["corun", "--tenants", "mcf,lbm",
                     "--xmem-tenants", "a,b"]) == 2
        assert "comma-separated" in capsys.readouterr().err

    def test_out_of_range_xmem_tenants_exits_two(self, capsys):
        assert main(["corun", "--tenants", "mcf,lbm",
                     "--xmem-tenants", "5"]) == 2
        assert "outside" in capsys.readouterr().err

    def test_unknown_engine_exits_two(self, capsys, monkeypatch):
        """Co-run has one engine, but a bad REPRO_ENGINE is still a
        clean exit 2 listing the choices, not a traceback."""
        monkeypatch.setenv("REPRO_ENGINE", "warp")
        assert main(["corun", "--tenants", "mcf,lbm",
                     "--accesses", "50"]) == 2
        assert "choices" in capsys.readouterr().err

    @pytest.mark.parametrize("tier", ["object", "analytical"])
    @pytest.mark.parametrize("command", [
        ["corun", "--tenants", "mcf,lbm", "--accesses", "50"],
        ["sweep", "--kernels", "mvt", "--n", "16", "--tiles", "8",
         "--jobs", "1"],
    ], ids=["corun", "sweep"])
    def test_retired_tiers_exit_two(self, capsys, monkeypatch, tmp_path,
                                    tier, command):
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
        monkeypatch.setenv("REPRO_ENGINE", tier)
        assert main(command) == 2
        err = capsys.readouterr().err
        assert "unknown engine tier" in err
        assert "('packed', 'vector')" in err

    def test_engine_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["corun", "--tenants", "mcf,lbm", "--engine", "packed"])
        assert exc.value.code == 2
        assert "--engine" in capsys.readouterr().err

    def test_bad_scenario_tenant_exits_two(self, capsys):
        assert main(["corun", "--tenants", "scenario:nope"]) == 2
        assert "bad scenario tenant" in capsys.readouterr().err

    def test_scenario_tenant_rejects_footprint_div(self, capsys):
        assert main(["corun", "--tenants", "scenario:hotcold",
                     "--footprint-div", "4"]) == 2
        assert "fixed declared footprints" in capsys.readouterr().err

    def test_stats_json_self_diffs_clean(self, capsys, monkeypatch,
                                         tmp_path):
        monkeypatch.setenv("REPRO_TRACE_CACHE",
                           str(tmp_path / "cache"))
        out = tmp_path / "corun_run"
        rc = main(["corun", "--tenants", "scenario:hotcold",
                   "--accesses", "600", "--scale", "16",
                   "--stats-json", str(out)])
        assert rc == 0
        capsys.readouterr()
        docs = sorted(out.glob("*.json"))
        assert len(docs) == 1
        assert "scenario-hotcold" in docs[0].name
        import json
        manifest = json.loads(docs[0].read_text())["manifest"]
        assert manifest["kind"] == "corunpoint"
        tenant = manifest["trace"]["tenants"][0]
        assert tenant["workload"] == "scenario:hotcold"
        assert main(["diff", str(out), str(out)]) == 0


class TestDiffCrossTier:
    """`repro diff` across manifests recorded on different engine
    tiers."""

    @pytest.fixture
    def run_dir(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "cache"))
        out = tmp_path / "run_a"
        rc = main(["sweep", "--kernels", "mvt", "--n", "32",
                   "--tiles", "8", "--jobs", "1",
                   "--stats-json", str(out)])
        assert rc == 0
        capsys.readouterr()
        return out

    def _retier(self, run_dir, tmp_path, tier):
        import json
        import shutil

        run_b = tmp_path / f"run_{tier}"
        shutil.copytree(run_dir, run_b)
        for path in run_b.glob("*.json"):
            doc = json.loads(path.read_text())
            doc["manifest"]["trace"]["tier"] = tier
            path.write_text(json.dumps(doc))
        return run_b

    def test_exact_tiers_still_gate_to_zero(self, run_dir, tmp_path,
                                            capsys):
        from repro.cpu.tiers import ENGINE_TIERS

        import json
        current = json.loads(sorted(run_dir.glob("*.json"))[0]
                             .read_text())["manifest"]["trace"]["tier"]
        other = sorted(set(ENGINE_TIERS) - {current})[0]
        run_b = self._retier(run_dir, tmp_path, other)
        assert main(["diff", str(run_dir), str(run_b)]) == 0
        out = capsys.readouterr().out
        assert "cross-tier comparison of exact tiers" in out
        assert "zero deltas" in out


class TestScenarioCli:
    """The scenario factory's CLI surface: list, sweep --scenarios."""

    def test_list_shows_scenario_specs(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "Scenario specs" in out
        assert "streamgrid" in out
        assert "lackey-sample" in out

    def test_sweep_bad_scenario_exits_two(self, capsys):
        assert main(["sweep", "--kernels", "",
                     "--scenarios", "nope"]) == 2
        assert "nope" in capsys.readouterr().err

    def test_sweep_nothing_exits_two(self, capsys):
        assert main(["sweep", "--kernels", ""]) == 2
        assert "nothing to sweep" in capsys.readouterr().err

    def test_scenario_only_sweep(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "cache"))
        out = tmp_path / "scn"
        rc = main(["sweep", "--kernels", "", "--scenarios", "hotcold",
                   "--scale", "16", "--jobs", "1",
                   "--stats-json", str(out)])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "scn:hotcold" in stdout
        docs = sorted(out.glob("*.json"))
        assert len(docs) == 1
        assert docs[0].name.startswith("000_scn_hotcold_")
        assert main(["diff", str(out), str(out)]) == 0
