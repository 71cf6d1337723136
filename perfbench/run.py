#!/usr/bin/env python3
"""Benchmark of the `quantshift` command line.

Each workload runs the CLI as a fresh single-threaded process, one process
at a time (a closed loop with one client), from the sources in ``src/``.
Every run's outputs are checked, and the last line printed is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --workload paper_grid --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36
    python3 perfbench/run.py --self-check

--trace 0 repeats (set-up probe, workload run) pairs for about --seconds
seconds and reports the medians of the end-to-end metrics. --trace 1 runs
the workload untraced a few times and then traced (child_trace.py), and
reports the per-layer metrics, each layer's self time and the tracing
overhead; count metrics must agree exactly between the traced runs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from child_trace import LAYER_METRICS
from workloads import BENCH_DIR, ROOT, SELF_CHECK_WORKLOADS, SRC, WORKLOADS, Workload, tree_digest

E2E_METRICS = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
MIN_RUNS = 3  # untraced runs per --trace 0 invocation, whatever --seconds says
BASELINE_RUNS = 2  # untraced runs before the traced ones with --trace 1
TRACED_RUNS = 2
# Whole-invocation budget; a child still running at the deadline is killed
# and counted as failed.
BUDGET_S = 170.0
SCRATCH = ROOT / ".perfbench_tmp"


class HarnessError(RuntimeError):
    """The benchmark cannot measure (sources missing, set-up probe fails)."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


@dataclass
class Proc:
    returncode: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str


def spawn(argv: list[str], work: Path, deadline: float) -> Proc:
    """Run ``argv`` to completion; resources come from wait4."""
    out_path, err_path = work / "stdout.txt", work / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=work, env=child_env())
        timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(
        proc.returncode,
        wall,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024.0,
        out_path.read_text(errors="replace"),
        err_path.read_text(errors="replace"),
    )


@dataclass
class Run:
    proc: Proc
    problems: list[str]
    digest: str
    size: int
    summary: dict | None = None
    label: str = "run"


def run_cli(workload: Workload, seed: int, work: Path, deadline: float, traced: bool = False) -> Run:
    """One workload process, its output check, and the digest of its outputs."""
    outdir = work / "out"
    shutil.rmtree(outdir, ignore_errors=True)
    summary_path = work / "trace.json"
    summary_path.unlink(missing_ok=True)
    cli_args = workload.argv(seed, outdir)
    if traced:
        argv = [sys.executable, str(BENCH_DIR / "child_trace.py"), str(summary_path), str(seed), *cli_args]
    else:
        argv = [sys.executable, "-m", "quantshift.cli", *cli_args]
    proc = spawn(argv, work, deadline)
    problems = workload.check(proc.returncode, proc.stdout, outdir)
    if proc.returncode != 0 and proc.stderr.strip():
        problems.append("stderr: " + proc.stderr.strip().splitlines()[-1])
    if workload.command == "verify":
        data = proc.stdout.encode()
        digest, size = hashlib.sha256(data).hexdigest(), len(data)
    else:
        digest, size = tree_digest(outdir) if outdir.is_dir() else ("", 0)
    summary = None
    if traced:
        if summary_path.is_file():
            summary = json.loads(summary_path.read_text())
        else:
            problems.append("traced run wrote no summary")
    return Run(proc, problems, digest, size, summary, "traced" if traced else "run")


def flag_digest_mismatches(runs: list[Run]) -> None:
    """Runs of one seed must write identical outputs."""
    good = [r.digest for r in runs if not r.problems]
    if not good:
        return
    reference = statistics.mode(good)
    for r in runs:
        if r.digest != reference:
            r.problems.append(f"output sha256 {r.digest[:16]} differs from {reference[:16]}")


def measure(
    workload: Workload, seed: int, seconds: float, work: Path, deadline: float, probe: list[str],
    min_runs: int = MIN_RUNS,
):
    """Alternate set-up probes and workload runs for about ``seconds``."""
    runs: list[Run] = []
    setups: list[float] = []
    start = time.perf_counter()
    while time.monotonic() < deadline:
        setup = spawn([sys.executable, str(BENCH_DIR / "child_setup.py"), *probe], work, deadline)
        if setup.returncode != 0:
            raise HarnessError(f"set-up probe exited {setup.returncode}: {setup.stderr.strip()[-500:]}")
        setups.append(setup.wall_s)
        runs.append(run_cli(workload, seed, work, deadline))
        elapsed = time.perf_counter() - start
        if len(runs) >= min_runs and elapsed * (len(runs) + 1) / len(runs) > seconds:
            break
    flag_digest_mismatches(runs)
    metrics = {
        "wall_s": statistics.median(r.proc.wall_s for r in runs),
        "cpu_s": statistics.median(r.proc.cpu_s for r in runs),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r.proc.peak_rss_mb for r in runs),
    }
    return runs, metrics


def measure_traced(workload: Workload, seed: int, work: Path, deadline: float, untraced_runs: int = BASELINE_RUNS):
    """Untraced runs for the overhead baseline, then the traced runs."""
    untraced = [run_cli(workload, seed, work, deadline) for _ in range(untraced_runs)]
    traced = [run_cli(workload, seed, work, deadline, traced=True) for _ in range(TRACED_RUNS)]
    runs = untraced + traced
    flag_digest_mismatches(runs)
    baseline = statistics.median(r.proc.wall_s for r in untraced)
    for r in traced:
        if r.summary is not None:
            r.summary["metrics"]["cli.bytes_written"] = r.size
            r.summary["metrics"]["trace.overhead_s"] = r.proc.wall_s - r.summary["extra_s"] - baseline
    summaries = [r.summary for r in traced if r.summary is not None]
    metrics = {}
    for name, _, is_count in LAYER_METRICS:
        values = [s["metrics"].get(name) for s in summaries]
        if not values or None in values:
            metrics[name] = None
        elif is_count:
            metrics[name] = values[0]
            for r in traced[1:]:
                if r.summary is not None and r.summary["metrics"][name] != values[0]:
                    r.problems.append(f"count {name} = {r.summary['metrics'][name]}, first traced run {values[0]}")
        else:
            metrics[name] = statistics.median(values)
    for note in ("missing_hooks", "broken_hooks"):
        names = sorted({h for s in summaries for h in s[note]})
        if names:
            print(f"{note.replace('_', ' ')}: {', '.join(names)}")
    return runs, metrics


def report(workload: str, runs: list[Run], metrics: dict, units: dict) -> dict:
    """Print a human-readable account and return the JSON result."""
    for i, r in enumerate(runs, 1):
        status = "ok" if not r.problems else "FAILED: " + "; ".join(r.problems)
        print(
            f"{workload} {r.label} {i}: wall {r.proc.wall_s:.3f} s, cpu {r.proc.cpu_s:.3f} s, "
            f"rss {r.proc.peak_rss_mb:.1f} MB, sha256 {r.digest[:16]}, {status}"
        )
    failed = sum(1 for r in runs if r.problems)
    for name, value in metrics.items():
        shown = "absent" if value is None else f"{value:.6g} {units[name]}"
        print(f"{workload} {name}: {shown}")
    print(f"{workload} error_rate: {failed}/{len(runs)} = {failed / len(runs):g}")
    return {
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    deadline = time.monotonic() + BUDGET_S
    workload = WORKLOADS[name]
    if trace:
        runs, metrics = measure_traced(workload, seed, work, deadline)
        units = {n: u for n, u, _ in LAYER_METRICS}
    else:
        runs, metrics = measure(workload, seed, seconds, work, deadline, [name])
        units = dict(E2E_METRICS)
    return report(name, runs, metrics, units)


def self_check(seed: int, work: Path) -> list[str]:
    """Each workload once at a tiny size, the traced run, and checks that the
    output checks reject tampered outputs."""
    problems = []
    deadline = time.monotonic() + BUDGET_S
    for name, workload in SELF_CHECK_WORKLOADS.items():
        runs, metrics = measure(workload, seed, 0.0, work, deadline, [name, "--self-check"], min_runs=2)
        problems += [f"{name}: {p}" for r in runs for p in r.problems]
        problems += [f"{name}: {m} = {v}" for m, v in metrics.items() if not v > 0]
        if workload.command == "verify":
            tampered = runs[-1].proc.stdout.replace("[PASS]", "[FAIL]", 1)
            if not workload.check(0, tampered, work / "out"):
                problems.append("verify check accepted a FAIL line")
            continue
        outdir = work / "out"
        for results in outdir.glob("*_results.json"):
            payload = json.loads(results.read_text())
            for table in payload["tables"]:
                if table["metric"] == "prevalence":
                    row = table["row_labels"].index("EM")
                    table["cells"][row][-1] += 0.02
            results.write_text(json.dumps(payload))
        if not workload.check(0, "", outdir):
            problems.append(f"{name}: check accepted tampered prevalence cells")
        if tree_digest(outdir)[0] == runs[-1].digest:
            problems.append(f"{name}: digest did not change with the outputs")

    runs, metrics = measure_traced(SELF_CHECK_WORKLOADS["paper_grid"], seed, work, deadline, untraced_runs=1)
    problems += [f"traced: {p}" for r in runs for p in r.problems]
    problems += [f"traced: {m} is absent" for m, v in metrics.items() if v is None]
    if metrics["sampling.proposals"] is not None and not metrics["sampling.proposals"] > metrics["sampling.draws"]:
        problems.append("traced: accept-reject made no rejected proposals")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    if declared != list(E2E_METRICS):
        problems.append(f"BENCHMARK.json end_to_end {declared} != {list(E2E_METRICS)}")
    declared = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    if declared != [(n, u) for n, u, _ in LAYER_METRICS]:
        problems.append("BENCHMARK.json per_layer does not match child_trace.LAYER_METRICS")
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads do not match workloads.WORKLOADS")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true", help="fast check of the harness itself")
    args = parser.parse_args()
    # on SIGTERM, unwind so that spawn() kills and reaps the running child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "quantshift" / "cli.py").is_file():
        print(f"benchmark: no quantshift sources under {SRC}", file=sys.stderr)
        return 2
    seed = args.seed % (1 << 64)
    SCRATCH.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH))
    try:
        if args.self_check:
            start = time.perf_counter()
            problems = self_check(seed, work)
            for p in problems:
                print(f"self-check: {p}")
            print(f"self-check {'FAILED' if problems else 'passed'} in {time.perf_counter() - start:.1f} s")
            return 1 if problems else 0
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        results = {name: run_workload(name, seed, args.seconds, bool(args.trace), work) for name in names}
    except HarnessError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if len(results) == 1:
        result = results[args.workload]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
