#!/usr/bin/env python3
"""Run the kernel benchmark suite and emit a single merged JSON report.

Runs ``bench_kernel``, ``bench_frame_sim``, ``bench_obs_overhead``,
``bench_ckpt`` and ``bench_iss`` (all Google Benchmark binaries) with
``--benchmark_format=json``, each benchmark repeated ``REPETITIONS`` times
with only the aggregates reported, and merges their results into one
document — the format committed as ``bench/baseline.json`` and produced by
CI for ``tools/bench_compare.py`` to gate on. Each row records the median
``real_time`` and ``cpu_time`` of the repetitions, with the coefficient of
variation of ``real_time`` (``cv``, a ratio) beside them.

Usage:
    tools/bench_report.py [--build-dir build] [--out report.json]
                          [--min-time 0.1] [--label LABEL]

Refreshing the committed baseline after an intentional perf change:
    tools/bench_report.py --build-dir build --out bench/baseline.json
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_BINARIES = ["bench_kernel", "bench_frame_sim", "bench_obs_overhead",
                  "bench_ckpt", "bench_iss"]
# A single run of a few-nanosecond row can land past the gate's threshold
# on unchanged code, so each row is the median of five.
REPETITIONS = 5


def run_benchmark(binary: Path, min_time: float) -> dict:
    cmd = [
        str(binary),
        "--benchmark_format=json",
        f"--benchmark_min_time={min_time}",
        f"--benchmark_repetitions={REPETITIONS}",
        "--benchmark_report_aggregates_only=true",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"benchmark failed: {' '.join(cmd)}")
    return json.loads(proc.stdout)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--build-dir", default="build")
    ap.add_argument("--out", default="-", help="output path ('-' = stdout)")
    ap.add_argument("--min-time", type=float, default=0.1,
                    help="per-benchmark minimum measurement time (s)")
    ap.add_argument("--label", default="",
                    help="free-form label recorded in the report")
    args = ap.parse_args()

    bench_dir = Path(args.build_dir) / "bench"
    report = {"label": args.label, "context": {}, "benchmarks": {}}
    for name in BENCH_BINARIES:
        binary = bench_dir / name
        if not binary.exists():
            raise SystemExit(f"missing benchmark binary: {binary} "
                             f"(build the '{name}' target first)")
        doc = run_benchmark(binary, args.min_time)
        ctx = doc.get("context", {})
        report["context"].setdefault("host_name", ctx.get("host_name"))
        report["context"].setdefault("num_cpus", ctx.get("num_cpus"))
        report["context"].setdefault("mhz_per_cpu", ctx.get("mhz_per_cpu"))
        report["context"].setdefault("library_build_type",
                                     ctx.get("library_build_type"))
        aggregates = {}
        for b in doc.get("benchmarks", []):
            if b.get("run_type") == "aggregate":
                aggregates[(b["run_name"], b["aggregate_name"])] = b
        for (run_name, agg), b in aggregates.items():
            if agg != "median":
                continue
            cv = aggregates.get((run_name, "cv"))
            if cv is None:
                raise SystemExit(f"{name}: no cv aggregate for {run_name}")
            report["benchmarks"][run_name] = {
                "binary": name,
                "real_time": b["real_time"],
                "cpu_time": b["cpu_time"],
                "time_unit": b["time_unit"],
                "cv": cv["real_time"],
            }

    text = json.dumps(report, indent=2, sort_keys=False) + "\n"
    if args.out == "-":
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text)
        print(f"wrote {len(report['benchmarks'])} benchmark entries "
              f"to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
