"""Run one eventready benchmark workload and print its metrics.

    python3 bench/run.py --workload delay-scan --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 35 --trace 0

Run from anywhere; the package is imported from the `src/` next to this
directory.  The run sets up (import, inputs from the seed, one warm-up
operation), then repeats whole passes of the workload for about
`--seconds`, checks every pass's outputs against their closed forms, and
prints a table followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones, measured untraced.
With `--trace 1` untraced and traced passes alternate; the metrics are
the per-layer ones from the traced passes plus the tracing overhead.
Spans, per-pass samples and the environment stamp are written under
`bench/out/<workload>/`: the spans of the latest traced run, and
the detail of every run by seed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from importlib import metadata
from pathlib import Path
from time import perf_counter, process_time

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

from tracing import PER_LAYER, Tracer, layer_metrics, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# One thread for BLAS/OpenMP, so the 4x4 algebra and curve_fit start none.
# numpy is first imported in set_up, and probe processes inherit this.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

SETUP_SAMPLES = 3  # the median of this many set-ups, SETUP_SAMPLES - 1 in child processes
MIN_ROUNDS = 3  # untraced run; a traced run alternates and needs 2 rounds
PROBE_TIMEOUT_S = 120

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_ok_ratio", "ratio"),
)


def set_up(name: str, seed: int, workdir: Path):
    """Import the package, make the inputs, run one warm-up operation."""
    start = perf_counter()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import eventready.cli  # noqa: F401
    import eventready.presets  # noqa: F401

    workload = WORKLOADS[name](seed, workdir)
    workload.warm_up()
    return workload, perf_counter() - start


def probe_setup(name: str, seed: int, workdir: Path) -> float:
    """Set-up time measured in a fresh interpreter, so the import is paid again."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", name, "--seed", str(seed), "--workdir", str(workdir)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe exited {proc.returncode}: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


def timed_pass(workload) -> dict:
    wall0, cpu0 = perf_counter(), process_time()
    try:
        outcome = workload.run_pass()
    except Exception:  # the pass boundary: record it and count every op failed
        traceback.print_exc(file=sys.stderr)
        outcome = None
    wall, cpu = perf_counter() - wall0, process_time() - cpu0
    try:
        failed = workload.ops if outcome is None else workload.check(outcome)
    except (OSError, KeyError, TypeError, ValueError):  # missing or malformed outputs
        traceback.print_exc(file=sys.stderr)
        failed = workload.ops
    return {"wall_s": wall, "cpu_s": cpu, "failed": failed}


def traced_pass(workload, run_id: int):
    tracer = Tracer(run_id)
    with tracer.installed():
        sample = timed_pass(workload)
    return sample, tracer


def run_rounds(workload, seconds: float, trace: bool):
    """Whole passes until the next round would overrun `seconds`."""
    untraced, traced, tracers = [], [], []
    min_rounds = 2 if trace else MIN_ROUNDS
    begin = perf_counter()
    while True:
        untraced.append(timed_pass(workload))
        if trace:
            sample, tracer = traced_pass(workload, len(traced))
            traced.append(sample)
            tracers.append(tracer)
        rounds = len(untraced)
        elapsed = perf_counter() - begin
        if rounds >= min_rounds and elapsed * (rounds + 1) / rounds > seconds:
            return untraced, traced, tracers


def distribution(values) -> dict:
    values = sorted(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"n": len(values), "mean": statistics.fmean(values),
            "median": statistics.median(values), "q1": q1, "q3": q3, "max": values[-1]}


def environment(seed: int) -> dict:
    versions = {}
    for package in ("numpy", "scipy", "jsonschema"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = "absent"
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        **versions,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "seed": seed,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def write_spans(path: Path, tracers):
    rows, offset = [], 0
    for tracer in tracers:
        for name, start, end, parent, run_id in tracer.spans:
            rows.append([name, start, end, parent + offset if parent >= 0 else -1, run_id])
        offset += len(tracer.spans)
    payload = {"fields": ["name", "start", "end", "parent", "run"], "spans": rows}
    path.write_text(json.dumps(payload, separators=(",", ":")) + "\n", encoding="utf-8")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    outdir = OUT / name
    for stale in ("probe", "run"):
        shutil.rmtree(outdir / stale, ignore_errors=True)
    # A traced run reports no set-up time, so it spends none on probes.
    probes = 0 if trace else SETUP_SAMPLES - 1
    setups = [probe_setup(name, seed, outdir / "probe") for _ in range(probes)]
    workload, own_setup = set_up(name, seed, outdir / "run")
    setups.append(own_setup)

    untraced, traced, tracers = run_rounds(workload, seconds, trace)
    samples = untraced + traced
    attempted = workload.ops * len(samples)
    failed = sum(s["failed"] for s in samples)
    walls = [s["wall_s"] for s in untraced]
    summary = {
        "wall_s": distribution(walls),
        "cpu_s": distribution([s["cpu_s"] for s in untraced]),
        "setup_s": distribution(setups),
    }
    correct = failed == 0
    if trace:
        counts = [dict(t.counts) for t in tracers]
        if any(c != counts[0] for c in counts[1:]):
            correct = False
            print("benchmark: traced passes with the same inputs gave different counts",
                  file=sys.stderr)
        overhead = statistics.fmean(s["wall_s"] for s in traced) / statistics.fmean(walls) - 1.0
        values = layer_metrics(counts, [self_times(t.spans) for t in tracers], overhead)
        units = dict(PER_LAYER)
        write_spans(outdir / "spans.json", tracers)
        missing = tracers[0].missing
    else:
        # Pass times here are bimodal (the host alternates between a fast and a
        # ~1.5x slower state for seconds to minutes), so a run's median jumps
        # between the modes while its mean moves smoothly; over ten seeds the
        # mean spread less on every workload.  Median and quartiles stay in
        # the detail file.
        values = {
            "wall_s": summary["wall_s"]["mean"],
            "cpu_s": summary["cpu_s"]["mean"],
            "ops_per_s": workload.ops * len(walls) / sum(walls),
            "setup_s": summary["setup_s"]["median"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ops_ok_ratio": (attempted - failed) / attempted,
        }
        units = dict(END_TO_END)
        missing = []
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    detail = {
        "workload": name,
        "trace": int(trace),
        "environment": environment(seed),
        "inputs": workload.describe(),
        "passes": {"untraced": untraced, "traced": traced},
        "summary": summary,
        "untraced_targets": missing,
        "ops_failed_ratio": failed / attempted,
        "result": {"correct": correct, "attempted": attempted, "failed": failed,
                   "metrics": metrics},
    }
    (outdir / f"result-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(detail, indent=2) + "\n", encoding="utf-8")
    print_table(detail)
    return detail["result"]


def print_table(detail: dict):
    env = detail["environment"]
    print(f"# workload {detail['workload']}, seed {env['seed']}, trace {detail['trace']}: "
          f"{detail['inputs']['ops_per_pass']} ops per pass "
          f"({detail['inputs']['op']}), closed loop, one client")
    print("# env " + ", ".join(f"{k}={v}" for k, v in env.items()))
    for name, stats in detail["summary"].items():
        print(f"#   {name}: mean {stats['mean']:.6f} s, median {stats['median']:.6f}, "
              f"q1 {stats['q1']:.6f}, q3 {stats['q3']:.6f}, max {stats['max']:.6f}, "
              f"n {stats['n']}")
    print(f"#   ops_failed_ratio: {detail['ops_failed_ratio']}")
    for name, metric in detail["result"]["metrics"].items():
        print(f"# {name} = {metric['value']} {metric['unit']}")


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process; metrics keyed `workload/metric`."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"benchmark: workload {name} exited {proc.returncode}", file=sys.stderr)
            status = 1
            continue
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}/{key}"] = metric
    if status == 0:
        print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "eventready" / "__init__.py").is_file():
        print(f"benchmark: no eventready package under {SRC}", file=sys.stderr)
        return 2
    if args.probe_setup:
        _, elapsed = set_up(args.workload, args.seed, args.workdir)
        print(repr(elapsed))
        return 0
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
