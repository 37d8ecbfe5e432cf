"""One benchmark process: import, warm up, then run the measured items.

    python3 perfbench/worker.py --workload W --seed N --seconds S
                                --role setup|measure [--trace]

Started by run.py, one process per sample, so module-level caches and the
peak resident memory belong to a single role and workload. The closed loop
has one client on one thread: each item is issued only after the previous
one has finished and been checked. Prints one JSON object.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

import workloads  # noqa: E402


def import_library():
    """Import toric_correlator from this checkout's src/, never another copy."""
    sys.path.insert(0, SRC)
    import toric_correlator

    where = os.path.dirname(os.path.abspath(toric_correlator.__file__))
    if where != os.path.join(SRC, "toric_correlator"):
        raise RuntimeError(f"toric_correlator imported from {where}, not {SRC}")
    return toric_correlator


def load_reference() -> dict[str, str]:
    with open(os.path.join(HERE, "reference.json")) as fh:
        return json.load(fh)


def run_checked(item, reference) -> tuple[float, str | None]:
    """(seconds spent in the library, failure reason or None) for one item."""
    t0 = time.perf_counter()
    try:
        payload, checks = workloads.run_item(item)
    except Exception as exc:  # an item that raises counts as failed
        dt = time.perf_counter() - t0
        traceback.print_exc(file=sys.stderr)
        return dt, f"{type(exc).__name__}: {exc}"
    dt = time.perf_counter() - t0
    return dt, workloads.check_item(item, payload, checks, reference)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--role", required=True, choices=("setup", "measure"))
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    reference = load_reference()
    import_library()
    tracer = None
    if args.trace:
        # installed before the warm-up, whose spans carry item id -1, so
        # the set-up share of each layer is traced too
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    warm = workloads.WARMUP[args.workload]
    _, why = run_checked(warm, reference)
    if why is not None:
        print(f"warm-up item {warm} failed: {why}", file=sys.stderr)
        return 1
    setup_s = time.perf_counter() - START
    if args.role == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    laps = workloads.laps_for(args.workload, args.seconds)
    items = workloads.item_list(args.workload, args.seed, laps)
    latencies, failures = [], []
    for i, item in enumerate(items):
        if tracer is not None:
            tracer.item = i
        dt, why = run_checked(item, reference)
        latencies.append(dt)
        if why is not None:
            failures.append([i, workloads.item_key(item), why])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out = {
        "setup_s": setup_s,
        "laps": laps,
        "items": len(items),
        "latencies": latencies,
        "failures": failures,
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = tracer.layer_metrics(sum(latencies))
        out["fired"] = sorted(tracer.fired())
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        path = os.path.join(HERE, "out", f"trace-{args.workload}-{args.seed}.csv.gz")
        tracer.write(path)
        out["trace_file"] = os.path.relpath(path, ROOT)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
