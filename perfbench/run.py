"""The repo benchmark: Fig. 4 sweep, 4-tenant co-runs and a served batch.

Run from the repository root::

    python3 perfbench/run.py --workload fig4-gemm --seed 1 --seconds 55 --trace 0

Every run drives all three paths so that every end-to-end metric is
measured on every workload; the workload picks the focus path that
runs at full size and gets most of the time, and the paths' short
units interleave until ``--seconds`` have passed (see ``config.py``).
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` a separate
traced run's per-layer metrics.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  Any simulated statistic that differs from the recorded
goldens fails the run and the exit code is 1.

``--record-goldens`` recomputes ``goldens.json`` through the public
entry points; ``selftest.py`` runs every workload at the smallest
sizes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from statistics import median
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: End-to-end metrics: name -> unit.  fail_frac is failed / attempted
#: from the result line itself (it is 0 on a healthy run).
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sweep_s": "s",
    "vector_sweep_s": "s",
    "hit_mix_s": "s",
    "miss_mix_s": "s",
    "batch_s": "s",
    "get_run_p50_ms": "ms",
    "get_archived_p50_ms": "ms",
}

#: Tail latencies: printed beside the end-to-end metrics and reported
#: per layer, but not bounded -- on a shared 2-vCPU host their
#: run-to-run spread (38-62% between quartiles over ten runs) exceeds
#: any bound the regression gate allows.
TAILS = {"get_run_p90_ms": "ms", "get_archived_p90_ms": "ms"}

#: Per-layer metrics of the traced run: name -> unit.
PER_LAYER = {
    "runner.trace_gen_s": "s",
    "runner.trace_load_s": "s",
    "runner.trace_bytes": "bytes",
    "runner.setup_replay_s": "s",
    "runner.document_s": "s",
    "runner.document_bytes": "bytes",
    "runner.write_s": "s",
    "system.build_s": "s",
    "cpu.packed.run_s": "s",
    "cpu.vector.run_s": "s",
    "cpu.events": "count",
    "cpu.packed.ns_per_event": "ns",
    "cpu.vector.ns_per_event": "ns",
    "mem.l1.hit_rate": "ratio",
    "mem.l1.misses": "count",
    "mem.llc.miss_rate": "ratio",
    "mem.prefetch.xmem_useful_ratio": "ratio",
    "core.amu.alb_hit_rate": "ratio",
    "dram.reads": "count",
    "dram.writes": "count",
    "dram.row_hit_rate": "ratio",
    "corun.hit.run_s": "s",
    "corun.miss.baseline_run_s": "s",
    "corun.miss.xmem_run_s": "s",
    "corun.l1_misses": "count",
    "corun.us_per_l1_miss": "us",
    "stats.snapshot_s": "s",
    "serve.post_scenarios_ms": "ms",
    "serve.post_runs_ms": "ms",
    "serve.get_run_bytes": "bytes",
    "serve.get_run_p90_ms": "ms",
    "serve.get_archived_p90_ms": "ms",
    "serve.pool_warm_s": "s",
    "serve.peak_rss_mb": "MB",
    "serve.point_exec_s": "s",
    "serve.overhead_s": "s",
    "serve.points_executed": "count",
    "serve.points_deduped": "count",
    "serve.workspace_writes": "count",
    "serve.workspace_hits": "count",
    "serve.workers_recycled": "count",
    "serve.workers_crashed": "count",
    "trace.overhead_s": "s",
    "trace.unattributed_frac": "ratio",
}

#: Largest share of the traced total that may fall outside every
#: layer span (loop and bookkeeping code between the timed calls).
UNATTRIBUTED_TOLERANCE = 0.05

MODEL_STATEMENT = (
    "model: simulated cycles and rates are unvalidated against hardware "
    "(the repo holds no hardware reference); every simulated machine "
    "starts with empty caches; simulated numbers are exact-checked "
    "against goldens, host times are the measured metrics")


def parse_args(argv=None):
    import config
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(config.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--profile", choices=sorted(config.PROFILES),
                    default="full")
    ap.add_argument("--goldens", default=str(HERE / "goldens.json"))
    ap.add_argument("--record-goldens", action="store_true",
                    help="recompute goldens.json and exit")
    # Internal: one in-process path in a child process.
    ap.add_argument("--child", choices=("probe", "fig4", "corun"),
                    help=argparse.SUPPRESS)
    ap.add_argument("--cache", help=argparse.SUPPRESS)
    ap.add_argument("--out", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.workload is None and not args.record_goldens:
        ap.error("--workload is required")
    return args


def isolated_env(work: Path) -> Dict[str, str]:
    """The environment every benchmark process runs under: no stray
    ``REPRO_*`` knob (``REPRO_ENGINE``/``REPRO_JOBS`` would change what
    is measured), a private trace cache, serial sweeps."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_TRACE_CACHE"] = str(work / "traces")
    env["REPRO_JOBS"] = "1"
    env["XDG_CACHE_HOME"] = str(work / "xdg-cache")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def git_commit() -> str:
    # Only this checkout's own repository: git would otherwise walk up
    # into whatever repository happens to contain the directory.
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT),
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    out = proc.stdout.strip()
    return out if proc.returncode == 0 and out else "unknown"


def numpy_version() -> str:
    try:
        import numpy
    except ImportError:
        return "missing"
    return numpy.__version__


def spread(values: List[float]) -> str:
    if len(values) < 2:
        return "n/a"
    if len(values) < 4:
        lo, hi = min(values), max(values)
        return f"range {100 * (hi - lo) / median(values):.1f}%"
    q = statistics.quantiles(values, n=4)
    return f"iqr {100 * (q[2] - q[0]) / median(values):.1f}%"


def percentile(values: List[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


class Child:
    """One in-process path in its own process, driven rep by rep."""

    def __init__(self, kind: str, args, env: Dict[str, str], work: Path,
                 cache: Path) -> None:
        self.kind = kind
        self.log = work / f"{kind}.stderr"
        cmd = [sys.executable, str(HERE / "run.py"), "--child", kind,
               "--workload", args.workload, "--seed", str(args.seed),
               "--profile", args.profile, "--goldens", args.goldens,
               "--cache", str(cache), "--out", str(work / f"{kind}-docs")]
        with open(self.log, "w") as err:
            self.proc = subprocess.Popen(
                cmd, cwd=str(ROOT),
                env=dict(env, REPRO_TRACE_CACHE=str(cache)),
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err,
                text=True)
        self.ready = self._read()

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            self.proc.wait(timeout=30)
            raise RuntimeError(
                f"{self.kind} child exited {self.proc.returncode}: "
                f"{self.log.read_text()[-2000:]}")
        return json.loads(line)

    def call(self, command: str) -> dict:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self) -> dict:
        """Collect the child's summary and wait for it to exit."""
        try:
            return self.call("quit")
        except (OSError, RuntimeError, ValueError) as exc:
            return {"attempted": 1, "sim": {}, "peak_rss_kb": 0,
                    "errors": [f"{self.kind} child: {exc}"]}
        finally:
            try:
                self.proc.stdin.close()
            except OSError:
                pass
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def run_benchmark(args, work: Path) -> int:
    import config
    from goldens import Checker
    from served import Probe, ServePath
    from spans import Tracer

    profile = config.PROFILES[args.profile]
    env = isolated_env(work)
    goldens = json.loads(Path(args.goldens).read_text())
    checker = Checker(goldens)
    focus = config.WORKLOADS[args.workload]
    workers = os.cpu_count() or 1
    host = {"nproc": workers, "python": platform.python_version(),
            "numpy": numpy_version(), "git": git_commit(),
            "loadavg": [round(x, 2) for x in os.getloadavg()]}
    print(f"workload {args.workload} seed {args.seed} "
          f"seconds {args.seconds:g} trace {args.trace} "
          f"profile {args.profile} focus {focus}")
    print(MODEL_STATEMENT)

    tracer = Tracer() if args.trace else None
    probe = Probe(ROOT, env, work, args.workload, args.profile, checker)
    serve = ServePath(ROOT, env, work, profile, workers, checker, tracer,
                      probe)
    children: Dict[str, "Child"] = {}
    parts: Dict[str, Dict[str, List[float]]] = {}
    traced: Dict[str, dict] = {}
    summaries: Dict[str, dict] = {}
    deadline = time.monotonic() + args.seconds
    try:
        # The first lifecycle's probe fills the trace cache that the
        # in-process paths read from.
        t0 = time.monotonic()
        serve.lifecycle()
        serve_s = time.monotonic() - t0
        for kind in ("fig4", "corun"):
            children[kind] = Child(kind, args, env, work, probe.first_cache)
        if args.trace:
            for kind, child in children.items():
                traced[kind] = child.call("traced")
            while len(serve.lifecycles) < profile["rounds"]:
                serve.lifecycle()
        else:
            schedule(serve, serve_s, children, focus, profile["rounds"],
                     deadline, parts)
    except (OSError, RuntimeError, ValueError, KeyError,
            subprocess.SubprocessError) as exc:
        # A crashed server or child fails the run; what was measured
        # before it is still reported.
        checker.fail(f"lifecycle {len(serve.lifecycles)}: "
                     f"{type(exc).__name__}: {exc}")
    finally:
        for kind, child in children.items():
            summaries[kind] = child.close()
    for summary in summaries.values():
        checker.attempted += summary["attempted"]
        checker.errors.extend(summary["errors"])

    host["default_engine_tier"] = (
        children["fig4"].ready["default_tier"] if children else "unknown")
    print("host " + " ".join(f"{k}={v}" for k, v in host.items()))
    for summary in summaries.values():
        for label, cycles in sorted(summary["sim"].items()):
            print(f"sim {label}: {cycles} (exact-checked)")

    if args.trace:
        metrics = per_layer(traced, serve, checker, workers)
        units = PER_LAYER
        write_spans(args, traced, tracer)
    else:
        samples: Dict[str, List[float]] = {}
        metrics = end_to_end(parts, samples, summaries, serve, focus)
        units = END_TO_END
        for name in [*units, *TAILS]:
            if name in metrics:
                vals = samples.get(name, [])
                shown = (" [" + ", ".join(f"{v:.4g}" for v in vals) + "]"
                         if len(vals) <= 40 else "")
                unit = units.get(name) or TAILS[name]
                print(f"metric {name} = {metrics[name]:.6g} {unit} "
                      f"(n={len(vals)}, {spread(vals)}){shown}")
    fail_frac = len(checker.errors) / max(checker.attempted, 1)
    print(f"metric fail_frac = {fail_frac:.6g} ratio "
          f"({len(checker.errors)} of {checker.attempted} operations)")
    for error in checker.errors[:20]:
        print(f"FAILED: {error}", file=sys.stderr)
    missing = [n for n in units if n not in metrics]
    if missing:
        checker.fail(f"metrics not measured: {missing}")
    correct = not checker.errors
    print(json.dumps({
        "correct": correct,
        "attempted": max(checker.attempted, 1),
        "failed": len(checker.errors),
        "metrics": {n: {"value": metrics[n], "unit": units[n]}
                    for n in units if n in metrics},
    }))
    return 0 if correct else 1


def schedule(serve, serve_s: float, children: Dict[str, "Child"],
             focus: str, rounds: int, deadline: float,
             parts: Dict[str, Dict[str, List[float]]]) -> None:
    """Hand the next unit -- a served lifecycle or one in-process unit
    -- to the path furthest behind its share of the time spent, until
    the deadline has passed and every path has ``rounds`` samples of
    each of its units.  ``parts[metric][part]`` collects the in-process
    samples."""
    import config
    share = {"serve": config.SHARES["serve"]}
    need = {"serve": rounds}
    for kind, child in children.items():
        share[kind] = config.SHARES["focus" if kind == focus
                                    else "companion"]
        need[kind] = rounds * child.ready["units"]
    spent = dict.fromkeys(share, 0.0)
    calls = dict.fromkeys(share, 0)
    spent["serve"], calls["serve"] = serve_s, len(serve.lifecycles)
    while True:
        short = [kind for kind in share if calls[kind] < need[kind]]
        if time.monotonic() >= deadline:
            if not short:
                return
            candidates = short
        else:
            candidates = list(share)
        kind = min(candidates, key=lambda k: spent[k] / share[k])
        t0 = time.monotonic()
        if kind == "serve":
            serve.lifecycle()
        else:
            unit = children[kind].call("rep")
            parts.setdefault(unit["metric"], {}).setdefault(
                unit["part"], []).append(unit["seconds"])
        spent[kind] += time.monotonic() - t0
        calls[kind] += 1


def end_to_end(parts: Dict[str, Dict[str, List[float]]],
               samples: Dict[str, List[float]], summaries: dict, serve,
               focus: str) -> Dict[str, float]:
    """Medians (percentiles for latencies).  An in-process metric is
    the sum over its parts (a sweep's points) of each part's median;
    ``samples`` gains every metric's samples -- for a sweep, the sums
    of the parts' i-th samples -- so the caller can print spreads."""
    for name, by_part in parts.items():
        count = min(len(v) for v in by_part.values())
        samples[name] = [sum(v[i] for v in by_part.values())
                         for i in range(count)]
    metrics = {name: sum(median(v) for v in by_part.values())
               for name, by_part in parts.items()}
    lc = serve.lifecycles
    samples["setup_s"] = [c["probe_s"] + c["server_setup_s"] for c in lc]
    samples["batch_s"] = [c["batch_s"] for c in lc]
    samples.update(latency_samples(lc))
    for name in ("setup_s", "batch_s", *TAILS,
                 "get_run_p50_ms", "get_archived_p50_ms"):
        if samples.get(name):
            metrics[name] = median(samples[name])
    rss = summaries.get(focus, {}).get("peak_rss_kb", 0)
    if rss:
        metrics["peak_rss_mb"] = rss / 1024.0
        samples["peak_rss_mb"] = [rss / 1024.0]
    return metrics


def latency_samples(lc: List[dict]) -> Dict[str, List[float]]:
    """GET latency percentiles, one per lifecycle (one closed-loop burst
    each); the reported value is their median, so one burst that lands
    in a slow stretch of the host cannot move it on its own."""
    out = {}
    for metric, key in (("get_run", "get_s"),
                        ("get_archived", "archived_get_s")):
        for pct in (50, 90):
            out[f"{metric}_p{pct}_ms"] = [
                1e3 * percentile(c[key], pct) for c in lc
                if len(c.get(key, ())) >= 2]
    return out


def serve_layers(lc: List[dict], workers: int) -> Dict[str, float]:
    from served import COUNTERS
    out = {
        "serve.post_scenarios_ms": 1e3 * median(
            [s for c in lc for s in c["post_scenarios_s"]]),
        "serve.post_runs_ms": 1e3 * median([c["post_runs_s"] for c in lc]),
        "serve.get_run_bytes": lc[-1]["get_run_bytes"],
        "serve.pool_warm_s": median([c["pool_warm_s"] for c in lc]),
        "serve.peak_rss_mb": max(c["rss_kb"] for c in lc) / 1024.0,
        "serve.point_exec_s": median([c["point_exec_s"] for c in lc]),
        # Batch wall time not explained by the points' own phases
        # spread over the pool.
        "serve.overhead_s": median(
            [c["batch_s"] - c["point_exec_s"] / workers for c in lc]),
    }
    latencies = latency_samples(lc)
    for name in TAILS:
        out[f"serve.{name}"] = median(latencies[name])
    counters = ([c["counters"] for c in lc]
                + [c.get("archived_counters", {}) for c in lc])
    for name in COUNTERS:
        out[f"serve.{name}"] = sum(c.get(name, 0) for c in counters)
    return out


def per_layer(traced: Dict[str, dict], serve, checker,
              workers: int) -> dict:
    metrics: Dict[str, float] = {}
    overhead = total = unattributed = 0.0
    for result in traced.values():
        metrics.update(result.get("layers", {}))
        if "roots" in result:
            overhead += result["traced_s"] - result["untraced_s"]
            total += result["roots"]["total_s"]
            unattributed += result["roots"]["unattributed_s"]
    lc = serve.lifecycles
    if lc:
        metrics.update(serve_layers(lc, workers))
    metrics["trace.overhead_s"] = overhead
    frac = unattributed / total if total else 1.0
    metrics["trace.unattributed_frac"] = frac
    checker.equal(frac <= UNATTRIBUTED_TOLERANCE, True,
                  f"layer spans cover the traced total within "
                  f"{UNATTRIBUTED_TOLERANCE:.0%} (unattributed {frac:.2%})")
    for name, unit in PER_LAYER.items():
        if name in metrics:
            print(f"layer {name} = {metrics[name]:.6g} {unit}")
    return metrics


def write_spans(args, traced: Dict[str, dict], tracer) -> None:
    """Spans stay in memory until here; one JSON file per traced run."""
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    doc = {kind: result.get("spans", []) for kind, result in traced.items()}
    doc["serve"] = tracer.spans
    path = out_dir / f"spans-{args.workload}-s{args.seed}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    print(f"spans written to {path.relative_to(ROOT)}")


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: {SRC}/repro not found; run from a full "
              f"checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.child:
        import inproc
        return inproc.main(args)
    if args.record_goldens:
        import config
        import goldens
        work = ROOT / ".perfbench_work" / f"goldens-{os.getpid()}"
        env = isolated_env(work)
        os.environ.clear()
        os.environ.update(env)
        try:
            data = goldens.record(config.PROFILES)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        Path(args.goldens).write_text(
            json.dumps(data, indent=1, sort_keys=True) + "\n")
        print(f"recorded {len(data)} goldens into {args.goldens}")
        return 0
    # A terminated run still unwinds, so servers and children it started
    # are stopped and waited for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    work = ROOT / ".perfbench_work" / (
        f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return run_benchmark(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run's directory is still there


if __name__ == "__main__":
    sys.exit(main())
