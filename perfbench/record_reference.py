"""Record the reference digest of every item any seed can draw.

    python3 perfbench/record_reference.py [--out perfbench/reference.json]

Runs each item once, in one process, checks
its built-in identities and writes {item key: digest}. Item times go to
stderr, for sizing the strata. Re-record only when a change is meant to
alter exact results; the digests define what correct output is.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=os.path.join(HERE, "reference.json"))
    args = ap.parse_args(argv)
    ref = {}
    for item in workloads.all_items():
        t0 = time.perf_counter()
        payload, checks = workloads.run_item(item)
        dt = time.perf_counter() - t0
        if not all(checks):
            print(f"identity failed: {item}", file=sys.stderr)
            return 1
        key = workloads.item_key(item)
        ref[key] = workloads.digest(payload)
        print(f"{dt:9.4f}  {key}", file=sys.stderr, flush=True)
    with open(args.out, "w") as out:
        json.dump(ref, out, indent=0, sort_keys=True)
        out.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
