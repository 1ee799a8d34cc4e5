"""Measure a baseline: repeated runs of every workload, then two traced runs.

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline.json

For each workload it runs ``run.py`` once per seed with tracing off and
reports, per end-to-end metric, the median, the quartiles and the spread
(interquartile range over median, as ``statistics.quantiles(n=4)`` gives
it).  It then makes two traced runs per workload with the first seed and
checks that every count-valued per-layer metric is identical in both; a
count that differs is listed under ``count_mismatches``.  The machine
(``nproc``, Python version, platform) is recorded with the numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import ROOT, WORKLOADS  # noqa: E402


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    if proc.returncode:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["run_s"] = time.perf_counter() - t0
    return result


def stats(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    report: dict = {
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform()},
        "seeds": args.seeds, "run_seconds": seconds, "workloads": {},
    }
    for name in WORKLOADS:
        runs = []
        for seed in args.seeds:
            runs.append(run(name, seed, seconds, 0))
            sys.stderr.write(f"{name} seed {seed}: {runs[-1]['run_s']:.1f}s\n")
        entry = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "run_s": stats([r["run_s"] for r in runs]),
            "end_to_end": {m: stats([r["metrics"][m]["value"] for r in runs])
                           for m in runs[0]["metrics"]},
            "units": {m: v["unit"] for m, v in runs[0]["metrics"].items()},
        }
        traced = [run(name, args.seeds[0], seconds, 1) for _ in range(2)]
        first, second = (t["metrics"] for t in traced)
        entry["per_layer"] = {m: [first[m]["value"], second[m]["value"]] for m in first}
        entry["count_mismatches"] = [m for m in first if first[m]["unit"] == "count"
                                     and first[m]["value"] != second[m]["value"]]
        entry["traced_run_s"] = [t["run_s"] for t in traced]
        report["workloads"][name] = entry
        spreads = ", ".join(f"{m} {s['spread']:.3f}" for m, s in entry["end_to_end"].items())
        sys.stderr.write(f"{name}: failed {entry['failed']}/{entry['attempted']}; spreads {spreads}\n")
    args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
