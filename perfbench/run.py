"""finitetop benchmark: one workload per run, one JSON result line at the end.

    python3 perfbench/run.py --workload verify-n5 --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

With ``--trace 0`` the run measures the end-to-end metrics with tracing off;
with ``--trace 1`` it makes one untraced and one traced pass and reports the
per-layer metrics (see ``layers.py``) and the tracing overhead, and writes
the span summary to ``perfbench/_work/trace-<workload>-<seed>.json``.
``--workload all`` runs every workload in its own process and prints every
metric by name with its unit.  See ``README.md`` for what each workload and
metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import ROOT, SRC, WORK, WORKLOADS, Op  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "cases_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}

# import samples taken before the first pass, between passes and after the
# last one, so the setup figure sees the same stretch of the machine as the
# passes do (a run has at least MIN_PASSES + 1 such gaps)
SETUP_SAMPLES_PER_GAP = 8
# a median of at least two passes, so one slow stretch of a shared machine
# cannot set a run's figure alone
MIN_PASSES = 2
IMPORT_SNIPPET = ("import time; t = time.perf_counter(); import finitetop.cli; "
                  "print(time.perf_counter() - t)")


def import_seconds(count: int) -> list[float]:
    """Times to import ``finitetop.cli``, each in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    samples = []
    for _ in range(count):
        out = subprocess.run([sys.executable, "-c", IMPORT_SNIPPET], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=60, check=True)
        samples.append(float(out.stdout))
    return samples


def cpu_seconds() -> float:
    """CPU time of this process plus its reaped children (the verify workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024


def percentile(samples: list[float], pct: int) -> float:
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


def measure(workload, seconds: float) -> tuple[dict, int, int]:
    """Closed loop of whole passes until ``seconds`` of passes have run.

    The import samples for ``setup_s`` are taken in the gaps between passes,
    outside the timed passes.  One unrecorded import first, so byte-code
    compilation is not timed.
    """
    import_seconds(1)
    setups = import_seconds(SETUP_SAMPLES_PER_GAP)
    walls, cpus, rates, latencies = [], [], [], []
    attempted = failed = 0
    while len(walls) < MIN_PASSES or sum(walls) < seconds:
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        ops: list[Op] = workload.run_pass()
        wall = time.perf_counter() - t0
        cpu = cpu_seconds() - cpu0
        walls.append(wall)
        cpus.append(cpu)
        rates.append(sum(op.cases for op in ops) / wall)
        attempted += len(ops)
        failed += sum(not op.ok for op in ops)
        if workload.per_op_latency:
            latencies.extend(op.latency_s for op in ops)
        else:
            latencies.append(wall)
        setups.extend(import_seconds(SETUP_SAMPLES_PER_GAP))
    sys.stderr.write(f"[{workload.name}] {len(walls)} passes, {len(latencies)} latency samples, "
                     f"{len(setups)} import samples (min {min(setups):.4f}s), "
                     f"error_rate {failed / attempted:.6f} ({failed}/{attempted})\n")
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "cases_per_s": statistics.median(rates),
        "latency_p50_ms": 1000 * statistics.median(latencies),
        "latency_p90_ms": 1000 * percentile(latencies, 90),
        "peak_rss_mb": peak_rss_mb(),
        "success_rate": (attempted - failed) / attempted,
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}, attempted, failed


def trace(workload) -> tuple[dict, int, int]:
    """An untraced and a traced pass of the traced-run procedure."""
    import layers
    from tracer import Tracer

    t0 = time.perf_counter()
    plain = workload.run_pass(traced=True)
    untraced = time.perf_counter() - t0

    tracer = Tracer()
    workload.tracer = tracer
    layers.instrument(tracer)
    try:
        t0 = time.perf_counter()
        with tracer.span("benchmark.pass"):
            traced_ops = workload.run_pass(traced=True)
        traced = time.perf_counter() - t0
    finally:
        tracer.uninstall()
        workload.tracer = None
    rows = tracer.summary()
    values = layers.metrics(tracer, rows, traced - untraced)
    ops = plain + traced_ops
    failed = sum(not op.ok for op in ops)

    WORK.mkdir(exist_ok=True)
    out = WORK / f"trace-{workload.name}-{workload.seed}.json"
    out.write_text(json.dumps({"workload": workload.name, "seed": workload.seed,
                               "untraced_wall_s": untraced, "traced_wall_s": traced,
                               "counts": tracer.counts, "spans": rows}, indent=1, sort_keys=True))
    top = sorted(((r["self_s"], n) for n, r in rows.items()), reverse=True)[:12]
    sys.stderr.write(f"[{workload.name}] traced {traced:.2f}s, untraced {untraced:.2f}s, "
                     f"peak rss {peak_rss_mb():.0f} MB; "
                     f"top self times: " + ", ".join(f"{n} {s:.2f}s" for s, n in top) + f"\n"
                     f"[{workload.name}] span summary written to {out.relative_to(ROOT)}\n")
    return ({k: {"value": v, "unit": layers.PER_LAYER[k]} for k, v in values.items()},
            len(ops), failed)


def run_all(args) -> int:
    """Every workload in its own process; a table of every metric."""
    worst = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if proc.returncode:
            print(f"{name}: exit {proc.returncode}")
            worst = proc.returncode
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} error_rate={result['failed'] / result['attempted']:.6f}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:32s} {entry['value']:14.6f} {entry['unit']}")
        if not result["correct"]:
            worst = worst or 1
    return worst


def main() -> int:
    parser = argparse.ArgumentParser(description="finitetop benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "finitetop" / "cli.py").is_file():
        sys.stderr.write(f"no finitetop sources under {SRC}; run from a full checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)

    workload = WORKLOADS[args.workload](args.workload, args.seed)
    workload.prepare()
    try:
        if args.trace:
            metrics, attempted, failed = trace(workload)
        else:
            metrics, attempted, failed = measure(workload, args.seconds)
    finally:
        workload.close()
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
