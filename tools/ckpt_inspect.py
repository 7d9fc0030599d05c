#!/usr/bin/env python3
"""Dump an AVCKPT checkpoint blob (src/ckpt) as JSON.

Independent re-implementation of the container parser (stdlib only) so a
snapshot can be inspected — or a format regression caught — without
building the simulator. Layout (all integers big-endian, see
src/ckpt/checkpoint.hpp and DESIGN.md §11):

    char[8]  magic "AVCKPT\\x00\\x01"
    u32      format version (currently 2)
    u64      config hash (FNV-1a over the elaboration config; 0 = unchecked)
    u64      sim time (ns) at the save point
    u32      section count
    per section:
        u32 name length, name bytes
        u32 payload length, payload bytes

The "rrm" section (multi-region virtualization pool, src/rrm) carries a
versioned region-array summary and is decoded in full:

    u32 version (currently 1)
    u32 region count
    per region:
        u8  region index, u8 resident engine kind
        u8  busy flag, u8 isolated flag
        u64 swaps (configuration sessions), u32 jobs completed

Usage:
    tools/ckpt_inspect.py snapshot.ckpt            # manifest + section table
    tools/ckpt_inspect.py --hex-head 16 s.ckpt     # + first bytes per section
"""

import argparse
import json
import struct
import sys

MAGIC = b"AVCKPT\x00\x01"


class Corrupt(Exception):
    pass


class Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise Corrupt(f"truncated at byte {self.pos} "
                          f"(needed {n}, have {len(self.data) - self.pos})")
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def u32(self) -> int:
        return struct.unpack(">I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack(">Q", self.take(8))[0]

    def u8(self) -> int:
        return self.take(1)[0]


ENGINE_KINDS = {0: "none", 1: "census", 2: "matching", 3: "sobel", 4: "flow"}


def decode_rrm(payload: bytes) -> dict:
    """Decode the versioned region-array summary (src/rrm/rrm_section.hpp)."""
    r = Reader(payload)
    version = r.u32()
    if version != 1:
        raise Corrupt(f"unsupported rrm section version {version}")
    count = r.u32()
    regions = []
    for _ in range(count):
        index = r.u8()
        resident = r.u8()
        busy = r.u8()
        isolated = r.u8()
        swaps = r.u64()
        jobs = r.u32()
        regions.append({
            "index": index,
            "resident": ENGINE_KINDS.get(resident, f"?{resident}"),
            "busy": bool(busy),
            "isolated": bool(isolated),
            "swaps": swaps,
            "jobs": jobs,
        })
    if r.pos != len(payload):
        raise Corrupt(f"{len(payload) - r.pos} trailing bytes "
                      "in rrm section")
    return {"version": version, "regions": regions}


def inspect(data: bytes, hex_head: int) -> dict:
    r = Reader(data)
    if r.take(8) != MAGIC:
        raise Corrupt("not a checkpoint (bad magic)")
    doc = {
        "format_version": r.u32(),
        "config_hash": f"0x{r.u64():016x}",
        "sim_time_ns": r.u64(),
        "file_bytes": len(data),
        "sections": [],
    }
    count = r.u32()
    for _ in range(count):
        name = r.take(r.u32()).decode("utf-8", errors="replace")
        payload = r.take(r.u32())
        entry = {"name": name, "bytes": len(payload)}
        if name == "rrm":
            entry["rrm"] = decode_rrm(payload)
        if hex_head > 0:
            entry["head"] = payload[:hex_head].hex()
        doc["sections"].append(entry)
    if r.pos != len(data):
        raise Corrupt(f"{len(data) - r.pos} trailing bytes "
                      "after section table")
    return doc


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("snapshot", help="checkpoint file to inspect")
    ap.add_argument("--hex-head", type=int, default=0, metavar="N",
                    help="include the first N payload bytes of each "
                         "section as hex")
    args = ap.parse_args()

    with open(args.snapshot, "rb") as fh:
        data = fh.read()
    try:
        doc = inspect(data, args.hex_head)
    except Corrupt as e:
        print(json.dumps({"error": str(e), "file_bytes": len(data)},
                         indent=2))
        return 1
    print(json.dumps(doc, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
