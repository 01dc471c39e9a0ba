"""exosim benchmark: end-to-end CLI workloads and a traced per-layer run.

Usage (from the repository root):

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 38 --trace 0

Workloads (see workloads.py for the inputs and the output checks):

  campaign        reproduce over a block of seeds: the trial kernel plus
                  analysis, reports, manifests and self-checks.
  simulate_pinch  simulate with the pinch network for every subject: the
                  other PoseResponse path and write-only trace I/O.
  analyze_corpus  analyze a synthetic trace corpus made from the seed: the
                  read side of trace I/O and all of analysis, no simulation.

One run starts the real CLI (``python -m exosim.cli`` with ``PYTHONPATH=src``)
one process at a time until ``--seconds`` have passed, and checks every
invocation's outputs.  Each repeat is a ``--version`` set-up probe, the
reference process below, then the workload's invocation.

The CPUs of a shared virtual machine run up to ~1.6x slower for minutes at a
time, longer than a run, so a plain time measures the machine as much as the
program.  The reference is a fixed process of the benchmark's own (interpreter
start, the numpy and PyYAML imports, a pure-Python loop) that no change to
exosim can speed up; it and the invocation next to it slow down together.  So
``wall_rel`` and ``cpu_rel``, the median over repeats of the invocation's
wall and CPU time divided by the reference's, are the bounded metrics, in the
manner of a SPEC ratio.  ``setup_s`` is the fastest probe, ``peak_rss_mb`` the
median.  The plain times (fastest and median ``wall_s`` and ``cpu_s``), the
reference's and the throughputs are printed and recorded beside them.  With
``--trace 1`` one more, traced, invocation follows (tracer.py) and the run
reports per-layer metrics instead.  The last stdout line is the JSON result;
the full record, with the environment, the output digest and every sample,
goes to ``.perfbench_work/<workload>/record.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

sys.dont_write_bytecode = True  # leave nothing behind in the benchmark's directory
sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import TRACED, self_times  # noqa: E402
from workloads import WORKLOADS, Invocation, tree_digest  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
# Per child process.  At worst a run waits out the warm-up probe, overshoots
# --seconds (at most 60) by one repeat of three hung processes (probe,
# reference, invocation), and waits out the traced run: 60 + 5 * TIMEOUT_S =
# 160 s, inside the 180 s a run may take.
TIMEOUT_S = 20.0

# The reference process: 0.16-0.3 s on a 2 vCPU Xeon, depending on its state.
REFERENCE = "import numpy, yaml\ns = 0\nfor i in range(400_000):\n    s += i * i % 7\n"


def child_env() -> dict[str, str]:
    """The CLI's environment: package from src/, numeric threads pinned."""
    env = {k: v for k, v in os.environ.items() if k != "EXOSIM_CONFIG"}
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def invoke(argv: list[str], logs: Path) -> Invocation:
    """Run one process to completion; wall time, rusage from wait4."""
    logs.mkdir(parents=True, exist_ok=True)
    with open(logs / "stdout", "w+") as out, open(logs / "stderr", "w+") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        killer = threading.Timer(TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Invocation(
            rc=proc.returncode,
            stdout=out.read(),
            stderr=err.read(),
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            peak_rss_mb=usage.ru_maxrss / 1024.0,
        )


def cli(*args: str) -> list[str]:
    return [sys.executable, "-m", "exosim.cli", *args]


def reference(logs: Path) -> Invocation:
    ref = invoke([sys.executable, "-c", REFERENCE], logs)
    if ref.rc != 0:
        raise RuntimeError(f"reference process failed with exit code {ref.rc}: {ref.stderr}")
    return ref


def environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "PyYAML": metadata.version("PyYAML"),
        "workload_seed": seed,
        "child_threads": 1,
    }


def run_workload(workload, seconds: float, trace: bool, work: Path) -> dict:
    """Measure one workload for ``seconds``; returns the full record."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload.prepare(work)
    out = work / "out"
    # untimed warm-up: the first import compiles the package's bytecode
    invoke(cli("--version"), work / "logs")

    setups: list[Invocation] = []
    refs: list[Invocation] = []
    runs: list[Invocation] = []
    digests: list[str] = []
    failures: list[tuple[str, str]] = []  # (invocation, problem)
    started = last = time.perf_counter()
    repeat_s = 0.0
    # Start another repeat while at least half of one fits, so a run measures
    # ``seconds`` on average rather than overshooting by a whole repeat.
    while not runs or last - started + repeat_s / 2 < seconds:
        probe = invoke(cli("--version"), work / "logs")
        if probe.rc != 0 or not probe.stdout.startswith("exosim "):
            failures.append((f"probe {len(setups)}", f"exit {probe.rc}, {probe.stdout!r}"))
        setups.append(probe)
        refs.append(reference(work / "logs"))
        shutil.rmtree(out, ignore_errors=True)
        inv = invoke(cli(*workload.argv(out)), work / "logs")
        failures += [(f"repeat {len(runs)}", p) for p in workload.check(out, inv)]
        digests.append(tree_digest(out))
        runs.append(inv)
        now = time.perf_counter()
        repeat_s, last = now - last, now
    for i, d in enumerate(digests):
        if d != digests[0]:
            failures.append((f"repeat {i}", f"output digest {d[:12]} != {digests[0][:12]}"))

    samples = {
        "wall_rel": [r.wall_s / ref.wall_s for r, ref in zip(runs, refs)],
        "cpu_rel": [r.cpu_s / ref.cpu_s for r, ref in zip(runs, refs)],
        "setup_s": [s.wall_s for s in setups],
        "peak_rss_mb": [r.peak_rss_mb for r in runs],
        "wall_s": [r.wall_s for r in runs],
        "cpu_s": [r.cpu_s for r in runs],
        "reference_wall_s": [ref.wall_s for ref in refs],
    }
    metrics = {
        "wall_rel": statistics.median(samples["wall_rel"]),
        "cpu_rel": statistics.median(samples["cpu_rel"]),
        "setup_s": min(samples["setup_s"]),
        "peak_rss_mb": statistics.median(samples["peak_rss_mb"]),
    }
    record = {
        "workload": workload.name,
        "argv": workload.argv(out),
        "environment": environment(workload.seed),
        "digest": digests[0],
        "attempted": len(runs) + len(setups),
        "samples": samples,
        "metrics": metrics,
        "fastest": {name: min(values) for name, values in samples.items()},
        "medians": {name: statistics.median(values) for name, values in samples.items()},
    }
    # Throughput is the fixed work per invocation over the fastest wall time;
    # it is printed, but bounded only through wall_rel.
    record["throughput"] = {
        f"{unit}_per_s": count / record["fastest"]["wall_s"]
        for unit, count in (("trials", workload.trials), ("traces", workload.traces))
        if count
    }
    if trace:
        record["layers"], digest, problems = traced_run(workload, work, runs[-1].wall_s)
        record["attempted"] += 1
        if digest != digests[0]:
            problems.append("output digest differs from the untraced runs")
        failures += [("traced", p) for p in problems]
    record["failures"] = [f"{who}: {what}" for who, what in failures]
    record["failed"] = len({who for who, _ in failures})
    record["error_rate"] = record["failed"] / record["attempted"]
    return record


def traced_run(workload, work: Path, untraced_wall_s: float) -> tuple[dict, str, list[str]]:
    """One traced invocation: per-layer metrics, output digest, problems.

    ``trace.overhead_ratio`` compares it with the untraced invocation that ran
    just before it, so that both meet the same machine state.
    """
    out = work / "traced"
    spans_file = work / "spans.json"
    tracer = str(Path(__file__).resolve().parent / "tracer.py")
    inv = invoke([sys.executable, tracer, str(spans_file), *workload.argv(out)], work / "logs")
    problems = workload.check(out, inv)
    if not spans_file.is_file():
        return {}, "", problems + ["no spans written"]
    data = json.loads(spans_file.read_text())
    layers = self_times(data["spans"])
    counters = data["counters"]
    samples = counters["trial.samples"]
    analyzed = layers.get("analysis.analyze", {}).get("calls", 0)
    validated = layers.get("hand.validate_pose", {}).get("calls", 0)
    rows = counters["traceio.rows_read"] + counters["traceio.rows_skipped"]
    derived = {
        "trial.samples": samples,
        "trial.batch_mb": counters["trial.max_trace_bytes"] * workload.trials / 2**20,
        "hand.validate_pose.calls_per_sample": validated / samples if samples else 0.0,
        "analysis.fitted_ratio": counters["analysis.fitted"] / analyzed if analyzed else 0.0,
        "traceio.bytes_written": counters["traceio.bytes_written"],
        "traceio.rows_skipped_ratio": counters["traceio.rows_skipped"] / rows if rows else 0.0,
        "cli.import_s": data["import_s"],
        "trace.overhead_ratio": inv.wall_s / untraced_wall_s,
    }
    metrics = {}
    for name in load_spec()["per_layer"]:
        span, _, field = name.rpartition(".")
        if span in TRACED and field in ("calls", "self_s"):
            metrics[name] = layers.get(span, {}).get(field, 0)
        else:
            metrics[name] = derived[name]
    return metrics, tree_digest(out), problems


def load_spec() -> dict[str, dict[str, str]]:
    """Metric name -> unit, for the "end_to_end" and "per_layer" lists."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {kind: {m["name"]: m["unit"] for m in spec[kind]} for kind in ("end_to_end", "per_layer")}


def report(record: dict, trace: bool) -> dict:
    """Print the human-readable summary; return the JSON result line."""
    spec = load_spec()
    units = {**spec["end_to_end"], **spec["per_layer"]}
    env = record["environment"]
    print(f"workload {record['workload']}: exosim {' '.join(record['argv'])}")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    n = len(record["samples"]["wall_s"])
    print(f"digest sha256:{record['digest']} (numpy {env['numpy']}, PyYAML {env['PyYAML']}, "
          f"{n} repeats)")
    for name, samples in record["samples"].items():
        value = record["metrics"].get(name, record["fastest"][name])
        print(f"  {name:<16} {value:12.4f} {units.get(name, 's'):<5} n={len(samples)} "
              f"min={min(samples):.4f} median={record['medians'][name]:.4f} "
              f"max={max(samples):.4f}")
    for name, value in record["throughput"].items():
        print(f"  {name:<16} {value:12.4f} 1/s")
    print(f"  {'error_rate':<16} {record['error_rate']:12.4f} "
          f"({record['failed']} failed of {record['attempted']})")
    for line in record["failures"]:
        print(f"  FAILED {line}")
    chosen = record["layers"] if trace else record["metrics"]
    if trace:
        for name, value in chosen.items():
            print(f"  {name:<40} {value:14.6f} {units[name]}")
    return {
        "correct": not record["failures"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in chosen.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "exosim" / "cli.py").is_file():
        print(f"error: no exosim package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    work = WORK / args.workload
    record = run_workload(workload, args.seconds, bool(args.trace), work)
    result = report(record, bool(args.trace))
    (work / "record.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
