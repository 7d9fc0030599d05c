#!/usr/bin/env python3
"""Pin the simulated counts of a traced Table II frame across commits.

Reads the result line (the last line, JSON) of a traced perfbench
`frame_table2` run and compares its count metrics with a committed pin:
`kernel.*` except `kernel.ns_per_invocation`, every `proc.*.invocations`,
`isa.insns`, `isa.decodes`, `bus.plb_beats`, `bus.plb_transactions` and
`sim.frame_us`. These are simulated quantities, not host times, so a
change that claims to leave the simulation alone must leave each one
exactly as it was. Exit 1 names every metric that differs or is missing.

Usage:
    python3 perfbench/run.py --workload frame_table2 --seed 1 --seconds 2 \\
        --trace 1 | tee frame.out
    python3 tools/frame_counts.py frame.out bench/frame_counts_seed1.json
    python3 tools/frame_counts.py frame.out PIN.json --write   # re-pin
"""

import argparse
import json
import sys

EXACT = ("isa.insns", "isa.decodes", "bus.plb_beats", "bus.plb_transactions",
         "sim.frame_us")


def is_count(name):
    if name.startswith("kernel."):
        return name != "kernel.ns_per_invocation"
    if name.startswith("proc."):
        return name.endswith(".invocations")
    return name in EXACT


def result_counts(path):
    """The pinned metrics of the run's result line, name -> value."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty")
    result = json.loads(lines[-1])
    return {name: m["value"] for name, m in result["metrics"].items()
            if is_count(name)}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("result", help="perfbench output; last line is the JSON")
    ap.add_argument("pin", help="committed pin (JSON)")
    ap.add_argument("--write", action="store_true",
                    help="write the run's counts to PIN instead of comparing")
    args = ap.parse_args()

    try:
        got = result_counts(args.result)
    except (OSError, ValueError, KeyError, TypeError) as e:
        print(f"frame_counts: cannot read a result line: {e}", file=sys.stderr)
        return 1
    if args.write:
        with open(args.pin, "w", encoding="utf-8") as fh:
            json.dump({"counts": got}, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"frame_counts: wrote {len(got)} counts to {args.pin}")
        return 0

    with open(args.pin, "r", encoding="utf-8") as fh:
        want = json.load(fh)["counts"]
    bad = []
    for name in sorted(set(want) | set(got)):
        if name not in got:
            bad.append(f"{name}: missing from the run (pinned {want[name]})")
        elif name not in want:
            bad.append(f"{name}: {got[name]} is not pinned")
        elif got[name] != want[name]:
            bad.append(f"{name}: {got[name]} (pinned {want[name]})")
    for line in bad:
        print(f"frame_counts: {line}")
    if bad:
        print(f"frame_counts: FAIL, {len(bad)} of {len(want)} counts differ")
        return 1
    print(f"frame_counts: ok, {len(want)} counts match {args.pin}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
